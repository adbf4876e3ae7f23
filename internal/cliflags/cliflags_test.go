package cliflags

import (
	"flag"
	"io"
	"runtime"
	"testing"

	"ctxmatch"
)

// knobs are the Options fields the flags set.
type knobs struct {
	Tau, Omega     float64
	EarlyDisjuncts bool
	Inference      ctxmatch.Inference
	Selection      ctxmatch.Selection
	MaxDepth       int
	Seed           int64
	Parallelism    int
}

// TestRegisterResolvesFlags parses each command line through Register
// and reads the result back from a Matcher built with the resolved
// options, so a flag that maps to the wrong option or is dropped fails.
func TestRegisterResolvesFlags(t *testing.T) {
	defaults := knobs{
		Tau: 0.5, Omega: 5, EarlyDisjuncts: true,
		Inference: ctxmatch.TgtClassInfer, Selection: ctxmatch.QualTable,
		MaxDepth: 1, Seed: 1, Parallelism: runtime.GOMAXPROCS(0),
	}
	for _, tc := range []struct {
		args []string
		edit func(*knobs) // turns the defaults into the expected knobs
	}{
		{nil, func(*knobs) {}},
		{[]string{"-inference", "naive"}, func(k *knobs) { k.Inference = ctxmatch.NaiveInfer }},
		{[]string{"-inference", "NAIVE"}, func(k *knobs) { k.Inference = ctxmatch.NaiveInfer }},
		{[]string{"-inference", "srcclass"}, func(k *knobs) { k.Inference = ctxmatch.SrcClassInfer }},
		{[]string{"-inference", "SrcClass"}, func(k *knobs) { k.Inference = ctxmatch.SrcClassInfer }},
		{[]string{"-inference", "tgtclass"}, func(k *knobs) { k.Inference = ctxmatch.TgtClassInfer }},
		{[]string{"-inference", "TGTCLASS"}, func(k *knobs) { k.Inference = ctxmatch.TgtClassInfer }},
		{[]string{"-selection", "qualtable"}, func(k *knobs) { k.Selection = ctxmatch.QualTable }},
		{[]string{"-selection", "QualTable"}, func(k *knobs) { k.Selection = ctxmatch.QualTable }},
		{[]string{"-selection", "multitable"}, func(k *knobs) { k.Selection = ctxmatch.MultiTable }},
		{[]string{"-selection", "MULTITABLE"}, func(k *knobs) { k.Selection = ctxmatch.MultiTable }},
		{[]string{"-late"}, func(k *knobs) { k.EarlyDisjuncts = false }},
		{
			[]string{"-tau", "0.3", "-omega", "2", "-depth", "2", "-seed", "7", "-parallelism", "3"},
			func(k *knobs) { k.Tau, k.Omega, k.MaxDepth, k.Seed, k.Parallelism = 0.3, 2, 2, 7, 3 },
		},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		resolve := Register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		opts, err := resolve()
		if err != nil {
			t.Fatalf("%v: resolve: %v", tc.args, err)
		}
		m, err := ctxmatch.New(opts...)
		if err != nil {
			t.Fatalf("%v: New: %v", tc.args, err)
		}
		o := m.Options()
		got := knobs{o.Tau, o.Omega, o.EarlyDisjuncts, o.Inference, o.Selection, o.MaxDepth, o.Seed, o.Parallelism}
		want := defaults
		tc.edit(&want)
		if got != want {
			t.Errorf("%v: resolved %+v, want %+v", tc.args, got, want)
		}
	}
}
