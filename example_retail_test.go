package ctxmatch_test

import (
	"context"
	"fmt"
	"log"

	"ctxmatch"
	"ctxmatch/internal/datagen"
)

// Example_retail is the paper's main evaluation scenario (§5,
// "Inventory Data"). A combined inventory of books and CDs — with a
// subtype label of cardinality γ=4, a decoy StockStatus column and two
// distractor tables — is matched against a two-table target schema.
// The example contrasts EarlyDisjuncts (merged disjunctive conditions,
// single best view per table) with LateDisjuncts (simple conditions,
// all views above ω), and evaluates both against the data set's gold
// standard.
func Example_retail() {
	cfg := datagen.DefaultInventoryConfig()
	cfg.Rows = 600
	cfg.Gamma = 4
	cfg.Target = datagen.Ryan
	ds := datagen.Inventory(cfg)

	fmt.Printf("source schema: %v\n", ds.Source.TableNames())
	fmt.Printf("target schema: %v (%s layout)\n\n", ds.Target.TableNames(), cfg.Target)

	for _, early := range []bool{true, false} {
		matcher, err := ctxmatch.New(ctxmatch.WithEarlyDisjuncts(early))
		if err != nil {
			log.Fatal(err)
		}
		policy := "LateDisjuncts"
		if early {
			policy = "EarlyDisjuncts"
		}
		res, err := matcher.Match(context.Background(), ds.Source, ds.Target)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s (TgtClassInfer, QualTable) ==\n", policy)
		for _, m := range res.ContextualMatches() {
			fmt.Printf("  %v\n", m)
		}
		pr := ds.EvaluateEdges(res.Matches)
		fmt.Printf("  accuracy %.0f%%  precision %.0f%%  FMeasure %.1f\n\n",
			100*pr.Recall, 100*pr.Precision, ds.FMeasureEdges(res.Matches))
	}

	// What the γ=4 labels look like and why EarlyDisjuncts merges them.
	src := ds.Source.Table("Inventory")
	fmt.Println("ItemType labels in the sample:")
	for _, v := range src.DistinctValues("ItemType") {
		fmt.Printf("  %-8s (%d rows)\n", v.Str(), src.ValueCounts("ItemType")[v.Key()])
	}
	// Output:
	// source schema: [Inventory Suppliers Employees]
	// target schema: [book music] (Ryan layout)
	//
	// == EarlyDisjuncts (TgtClassInfer, QualTable) ==
	//   Inventory.ListPrice → book.price [ItemType in ('Book1', 'Book2')] (conf 0.992)
	//   Inventory.ListPrice → music.price [ItemType in ('CD1', 'CD2')] (conf 0.987)
	//   Inventory.ItemName → music.album [ItemType in ('CD1', 'CD2')] (conf 0.871)
	//   Inventory.ItemName → book.title [ItemType in ('Book1', 'Book2')] (conf 0.871)
	//   Inventory.Creator → music.artist [ItemType in ('CD1', 'CD2')] (conf 0.870)
	//   Inventory.Maker → music.label [ItemType in ('CD1', 'CD2')] (conf 0.868)
	//   Inventory.Maker → book.publisher [ItemType in ('Book1', 'Book2')] (conf 0.868)
	//   Inventory.Code → book.isbn [ItemType in ('Book1', 'Book2')] (conf 0.868)
	//   Inventory.Code → music.asin [ItemType in ('CD1', 'CD2')] (conf 0.868)
	//   Inventory.Creator → book.author [ItemType in ('Book1', 'Book2')] (conf 0.868)
	//   accuracy 100%  precision 100%  FMeasure 100.0
	//
	// == LateDisjuncts (TgtClassInfer, QualTable) ==
	//   Inventory.ListPrice → book.price [ItemType = 'Book1'] (conf 0.989)
	//   Inventory.ListPrice → book.price [ItemType = 'Book2'] (conf 0.987)
	//   Inventory.ListPrice → music.price [ItemType = 'CD1'] (conf 0.984)
	//   Inventory.ListPrice → music.price [ItemType = 'CD2'] (conf 0.984)
	//   Inventory.ItemName → music.album [ItemType = 'CD1'] (conf 0.871)
	//   Inventory.ItemName → book.title [ItemType = 'Book2'] (conf 0.871)
	//   Inventory.ItemName → music.album [ItemType = 'CD2'] (conf 0.871)
	//   Inventory.ItemName → book.title [ItemType = 'Book1'] (conf 0.871)
	//   Inventory.Creator → music.artist [ItemType = 'CD2'] (conf 0.869)
	//   Inventory.Creator → music.artist [ItemType = 'CD1'] (conf 0.869)
	//   Inventory.Maker → music.label [ItemType = 'CD1'] (conf 0.868)
	//   Inventory.Maker → music.label [ItemType = 'CD2'] (conf 0.868)
	//   Inventory.Maker → book.publisher [ItemType = 'Book1'] (conf 0.868)
	//   Inventory.Maker → book.publisher [ItemType = 'Book2'] (conf 0.868)
	//   Inventory.Code → book.isbn [ItemType = 'Book1'] (conf 0.868)
	//   Inventory.Code → book.isbn [ItemType = 'Book2'] (conf 0.868)
	//   Inventory.Code → music.asin [ItemType = 'CD1'] (conf 0.868)
	//   Inventory.Code → music.asin [ItemType = 'CD2'] (conf 0.868)
	//   Inventory.Creator → book.author [ItemType = 'Book1'] (conf 0.866)
	//   Inventory.Creator → book.author [ItemType = 'Book2'] (conf 0.861)
	//   accuracy 100%  precision 100%  FMeasure 100.0
	//
	// ItemType labels in the sample:
	//   Book1    (156 rows)
	//   Book2    (137 rows)
	//   CD1      (160 rows)
	//   CD2      (147 rows)
}
