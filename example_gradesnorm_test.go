package ctxmatch_test

import (
	"context"
	"fmt"
	"log"

	"ctxmatch"
	"ctxmatch/internal/datagen"
)

// Example_gradesnorm is attribute normalization (§4, Examples 4.1-4.4
// and the §5.7 Grades experiment). The source stores one row per
// (student, exam); the target stores one row per student with a column
// per exam. Contextual matching infers the per-exam views; constraint
// propagation derives keys and contextual foreign keys on them; join
// rule 1 groups the views on the student name; and the executed
// Clio-style mapping produces the wide table.
func Example_gradesnorm() {
	cfg := datagen.GradesConfig{Students: 200, Exams: 5, Sigma: 8, Seed: 1}
	ds := datagen.Grades(cfg)

	fmt.Printf("source: %s (%d rows — one per student per exam)\n",
		ds.Source.Tables[0].Name, ds.Source.Tables[0].Len())
	fmt.Printf("target: %s (%d rows — one per student)\n\n",
		ds.Target.Tables[0].Name, ds.Target.Tables[0].Len())

	// LateDisjuncts: each exam view must survive individually so that
	// the mapping can join all of them. τ is lowered from its 0.5
	// default: the grades matches are tenuous on the mixed column (the
	// §3 false-negative problem — exactly why the paper studies τ
	// sensitivity in Figure 21).
	matcher, err := ctxmatch.New(
		ctxmatch.WithEarlyDisjuncts(false),
		ctxmatch.WithTau(0.4),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := matcher.Match(context.Background(), ds.Source, ds.Target)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== contextual matches ==")
	for _, m := range res.ContextualMatches() {
		fmt.Printf("  %v\n", m)
	}
	pr := ds.EvaluateEdges(res.Matches)
	fmt.Printf("  accuracy %.0f%%\n\n", 100*pr.Recall)

	// Build and execute the Clio-style mapping (join rule 1 groups the
	// exam views on the propagated key "name"). The edges reference
	// tables by name, so BuildMappings rebinds them to the schemas.
	maps, err := ctxmatch.BuildMappings(res.ContextualMatches(), ds.Source, ds.Target)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range maps {
		fmt.Printf("== mapping for %s ==\n", m.Target.Name)
		for _, lt := range m.Logical {
			fmt.Printf("logical table: %v\n", lt.Names())
			for _, j := range lt.Joins {
				fmt.Printf("  %v\n", j)
			}
		}
		for _, def := range m.ViewDefinitions() {
			fmt.Printf("%s;\n", def)
		}
		fmt.Printf("%s;\n\n", m.SQL())

		out := m.Execute()
		fmt.Printf("executed mapping: %d wide rows; first three:\n", out.Len())
		for i := 0; i < 3 && i < out.Len(); i++ {
			fmt.Printf("  %v\n", out.Rows[i])
		}
	}
	// Output:
	// source: grades_narrow (1000 rows — one per student per exam)
	// target: grades_wide (200 rows — one per student)
	//
	// == contextual matches ==
	//   grades_narrow.grade → grades_wide.grade3 [examNum = 3] (conf 0.947)
	//   grades_narrow.grade → grades_wide.grade1 [examNum = 1] (conf 0.942)
	//   grades_narrow.grade → grades_wide.grade0 [examNum = 0] (conf 0.939)
	//   grades_narrow.grade → grades_wide.grade2 [examNum = 2] (conf 0.939)
	//   grades_narrow.grade → grades_wide.grade4 [examNum = 4] (conf 0.932)
	//   grades_narrow.name → grades_wide.name [examNum = 0] (conf 0.867)
	//   grades_narrow.name → grades_wide.name [examNum = 1] (conf 0.867)
	//   grades_narrow.name → grades_wide.name [examNum = 2] (conf 0.867)
	//   grades_narrow.name → grades_wide.name [examNum = 3] (conf 0.867)
	//   grades_narrow.name → grades_wide.name [examNum = 4] (conf 0.867)
	//   grades_narrow.grade → grades_wide.grade3 [examNum = 2] (conf 0.749)
	//   grades_narrow.grade → grades_wide.grade4 [examNum = 3] (conf 0.730)
	//   grades_narrow.grade → grades_wide.grade3 [examNum = 4] (conf 0.710)
	//   grades_narrow.grade → grades_wide.grade1 [examNum = 0] (conf 0.696)
	//   grades_narrow.grade → grades_wide.grade1 [examNum = 2] (conf 0.682)
	//   grades_narrow.grade → grades_wide.grade2 [examNum = 3] (conf 0.652)
	//   grades_narrow.grade → grades_wide.grade0 [examNum = 1] (conf 0.645)
	//   grades_narrow.grade → grades_wide.grade2 [examNum = 1] (conf 0.637)
	//   accuracy 100%
	//
	// == mapping for grades_wide ==
	// logical table: [grades_narrow__examNum_0 grades_narrow__examNum_1 grades_narrow__examNum_2 grades_narrow__examNum_3 grades_narrow__examNum_4]
	//   grades_narrow__examNum_0 ⋈[name=name] grades_narrow__examNum_1 (join1)
	//   grades_narrow__examNum_0 ⋈[name=name] grades_narrow__examNum_2 (join1)
	//   grades_narrow__examNum_0 ⋈[name=name] grades_narrow__examNum_3 (join1)
	//   grades_narrow__examNum_0 ⋈[name=name] grades_narrow__examNum_4 (join1)
	// CREATE VIEW grades_narrow__examNum_0 AS select * from grades_narrow where examNum = 0;
	// CREATE VIEW grades_narrow__examNum_1 AS select * from grades_narrow where examNum = 1;
	// CREATE VIEW grades_narrow__examNum_2 AS select * from grades_narrow where examNum = 2;
	// CREATE VIEW grades_narrow__examNum_3 AS select * from grades_narrow where examNum = 3;
	// CREATE VIEW grades_narrow__examNum_4 AS select * from grades_narrow where examNum = 4;
	// SELECT grades_narrow__examNum_0.name AS name, grades_narrow__examNum_0.grade AS grade0, grades_narrow__examNum_1.grade AS grade1, grades_narrow__examNum_2.grade AS grade2, grades_narrow__examNum_3.grade AS grade3, grades_narrow__examNum_4.grade AS grade4
	// FROM grades_narrow__examNum_0
	//   LEFT OUTER JOIN grades_narrow__examNum_1 ON grades_narrow__examNum_0.name = grades_narrow__examNum_1.name
	//   LEFT OUTER JOIN grades_narrow__examNum_2 ON grades_narrow__examNum_0.name = grades_narrow__examNum_2.name
	//   LEFT OUTER JOIN grades_narrow__examNum_3 ON grades_narrow__examNum_0.name = grades_narrow__examNum_3.name
	//   LEFT OUTER JOIN grades_narrow__examNum_4 ON grades_narrow__examNum_0.name = grades_narrow__examNum_4.name;
	//
	// executed mapping: 200 wide rows; first three:
	//   [mary davis 35.36 53.27 54.29 60.22 82.32]
	//   [linda martin 45.97 52.41 58.78 52.93 85.49]
	//   [mary hill 38.32 37.82 68.89 65.1 76.46]
}
