package ctxmatch_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"ctxmatch"
)

// Example_conjunctive is the §3.5 scenario. The target table is
// semantically "non-fiction books", so the correct source condition is
// the 2-condition `ItemType = 'book' AND Fiction = 0`. Simple
// 1-conditions cannot express it; the iterative conjunctive search
// finds the ItemType = 'book' view in stage one and refines it with
// Fiction = 0 in stage two.
func Example_conjunctive() {
	bookWords := []string{"heart", "darkness", "history", "shadow", "garden",
		"letters", "stone", "winter", "empire", "journey", "memory", "kingdom"}
	cdWords := []string{"hotel", "california", "abbey", "road", "groove",
		"night", "soul", "velvet", "neon", "rhythm", "boulevard", "static"}
	title := func(rng *rand.Rand, words []string) string {
		parts := make([]string, 2+rng.Intn(2))
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	asin := func(rng *rand.Rand) string {
		const asinAlphabet = "ABCDEFGHJKLMNPQRSTUVWXYZ0123456789"
		b := []byte("B00")
		for i := 0; i < 7; i++ {
			b = append(b, asinAlphabet[rng.Intn(len(asinAlphabet))])
		}
		return string(b)
	}
	// catalogCode gives fiction and non-fiction books visibly different
	// catalog schemes so a classifier can tell them apart.
	catalogCode := func(rng *rand.Rand, fiction bool) string {
		if fiction {
			b := []byte("fic/")
			for i := 0; i < 8; i++ {
				b = append(b, byte('a'+rng.Intn(26)))
			}
			return string(b)
		}
		return fmt.Sprintf("QA-%03d.%02d-%04d", rng.Intn(1000), rng.Intn(100), rng.Intn(10000))
	}

	rng := rand.New(rand.NewSource(3))

	inv := ctxmatch.NewTable("inv",
		ctxmatch.Attribute{Name: "Title", Type: ctxmatch.Text},
		ctxmatch.Attribute{Name: "ItemType", Type: ctxmatch.String},
		ctxmatch.Attribute{Name: "Fiction", Type: ctxmatch.Int},
		ctxmatch.Attribute{Name: "Code", Type: ctxmatch.String},
	)
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			fic := (i / 2) % 2
			inv.Append(ctxmatch.Tuple{
				ctxmatch.S(title(rng, bookWords)), ctxmatch.S("book"),
				ctxmatch.I(fic), ctxmatch.S(catalogCode(rng, fic == 1)),
			})
		} else {
			inv.Append(ctxmatch.Tuple{
				ctxmatch.S(title(rng, cdWords)), ctxmatch.S("cd"),
				ctxmatch.I(rng.Intn(2)), ctxmatch.S(asin(rng)),
			})
		}
	}

	nonfiction := ctxmatch.NewTable("nonfiction_books",
		ctxmatch.Attribute{Name: "title", Type: ctxmatch.Text},
		ctxmatch.Attribute{Name: "code", Type: ctxmatch.String},
	)
	for i := 0; i < 200; i++ {
		nonfiction.Append(ctxmatch.Tuple{
			ctxmatch.S(title(rng, bookWords)),
			ctxmatch.S(catalogCode(rng, false)),
		})
	}

	source := ctxmatch.NewSchema("RS", inv)
	target := ctxmatch.NewSchema("RT", nonfiction)

	// Depth 1: only the 1-condition ItemType = 'book' can be found.
	// WithTau is lowered to 0.4: the mixed code column matches
	// tenuously (§3).
	base := []ctxmatch.Option{
		ctxmatch.WithInference(ctxmatch.SrcClassInfer),
		ctxmatch.WithTau(0.4),
	}
	run := func(header string, opts ...ctxmatch.Option) {
		matcher, err := ctxmatch.New(append(append([]ctxmatch.Option{}, base...), opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := matcher.Match(context.Background(), source, target)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(header)
		for _, m := range res.ContextualMatches() {
			fmt.Printf("  %v\n", m)
		}
	}
	run("== depth 1 (simple conditions only) ==",
		ctxmatch.WithMaxDepth(1))

	// Depth 2: the second stage refines the stage-one view with the
	// fresh attribute Fiction, finding the 2-condition.
	run("\n== depth 2 (conjunctive refinement, §3.5) ==",
		ctxmatch.WithMaxDepth(2), ctxmatch.WithOmega(2))
	// Output:
	// == depth 1 (simple conditions only) ==
	//   inv.Title → nonfiction_books.title [ItemType = 'book'] (conf 0.984)
	//   inv.Code → nonfiction_books.code [ItemType = 'book'] (conf 0.973)
	//
	// == depth 2 (conjunctive refinement, §3.5) ==
	//   inv.Code → nonfiction_books.code [ItemType = 'book' and Fiction = 0] (conf 0.986)
	//   inv.Title → nonfiction_books.title [ItemType = 'book'] (conf 0.984)
	//   inv.Title → nonfiction_books.title [ItemType = 'book' and Fiction = 0] (conf 0.984)
	//   inv.Code → nonfiction_books.code [ItemType = 'book'] (conf 0.973)
}
