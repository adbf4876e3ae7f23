package ctxmatch_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"ctxmatch"
)

// Example_quickstart is the paper's running example (Figure 1). A
// combined inventory table stores books and CDs discriminated by a
// numeric type column; the target schema stores them in separate book
// and music tables. Standard matching finds ambiguous table-level
// matches; contextual matching discovers that the matches should be
// conditioned on type = 1 (books) and type = 2 (CDs).
func Example_quickstart() {
	bookWords := []string{"heart", "darkness", "leaves", "grass", "wasteland",
		"history", "shadow", "garden", "letters", "stone", "winter", "empire"}
	cdWords := []string{"hotel", "california", "white", "album", "abbey",
		"road", "rumours", "groove", "night", "soul", "velvet", "neon"}
	title := func(rng *rand.Rand, words []string) string {
		parts := make([]string, 2+rng.Intn(2))
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	isbn := func(rng *rand.Rand) string {
		return fmt.Sprintf("978-0-%03d-%05d-%d", rng.Intn(1000), rng.Intn(100000), rng.Intn(10))
	}
	asin := func(rng *rand.Rand) string {
		const alpha = "ABCDEFGHJKLMNPQRSTUVWXYZ0123456789"
		b := []byte("B00")
		for i := 0; i < 7; i++ {
			b = append(b, alpha[rng.Intn(len(alpha))])
		}
		return string(b)
	}

	rng := rand.New(rand.NewSource(1))

	// RS.inv — the combined source table of Figure 1(a).
	inv := ctxmatch.NewTable("inv",
		ctxmatch.Attribute{Name: "id", Type: ctxmatch.Int},
		ctxmatch.Attribute{Name: "name", Type: ctxmatch.Text},
		ctxmatch.Attribute{Name: "type", Type: ctxmatch.Int},
		ctxmatch.Attribute{Name: "instock", Type: ctxmatch.Bool},
		ctxmatch.Attribute{Name: "code", Type: ctxmatch.String},
		ctxmatch.Attribute{Name: "price", Type: ctxmatch.Real},
	)
	for i := 0; i < 120; i++ {
		if i%2 == 0 {
			inv.Append(ctxmatch.Tuple{
				ctxmatch.I(1000 + i), ctxmatch.S(title(rng, bookWords)), ctxmatch.I(1),
				ctxmatch.B(rng.Intn(2) == 0), ctxmatch.S(isbn(rng)),
				ctxmatch.F(15 + rng.Float64()*10),
			})
		} else {
			inv.Append(ctxmatch.Tuple{
				ctxmatch.I(1000 + i), ctxmatch.S(title(rng, cdWords)), ctxmatch.I(2),
				ctxmatch.B(rng.Intn(2) == 0), ctxmatch.S(asin(rng)),
				ctxmatch.F(8 + rng.Float64()*6),
			})
		}
	}

	// RT.book and RT.music — the target tables of Figure 1(b-c).
	book := ctxmatch.NewTable("book",
		ctxmatch.Attribute{Name: "title", Type: ctxmatch.Text},
		ctxmatch.Attribute{Name: "isbn", Type: ctxmatch.String},
		ctxmatch.Attribute{Name: "price", Type: ctxmatch.Real},
	)
	music := ctxmatch.NewTable("music",
		ctxmatch.Attribute{Name: "title", Type: ctxmatch.Text},
		ctxmatch.Attribute{Name: "asin", Type: ctxmatch.String},
		ctxmatch.Attribute{Name: "price", Type: ctxmatch.Real},
	)
	for i := 0; i < 60; i++ {
		book.Append(ctxmatch.Tuple{
			ctxmatch.S(title(rng, bookWords)), ctxmatch.S(isbn(rng)),
			ctxmatch.F(15 + rng.Float64()*10),
		})
		music.Append(ctxmatch.Tuple{
			ctxmatch.S(title(rng, cdWords)), ctxmatch.S(asin(rng)),
			ctxmatch.F(8 + rng.Float64()*6),
		})
	}

	source := ctxmatch.NewSchema("RS", inv)
	target := ctxmatch.NewSchema("RT", book, music)

	// Standard matching is ambiguous: inv matches both targets.
	fmt.Println("== standard matches (the ambiguous Figure 2 situation) ==")
	for _, m := range ctxmatch.StandardMatch(inv, target, 0.5) {
		fmt.Printf("  %v\n", m)
	}

	// Contextual matching discovers the type = 1 / type = 2 split.
	// Prepare pins the target-side work (classifier training, column
	// scans) into a reusable handle: every further source schema matched
	// through `prepared` skips it entirely.
	fmt.Println("\n== contextual matches (the Figure 3 situation) ==")
	matcher, err := ctxmatch.New()
	if err != nil {
		log.Fatal(err)
	}
	prepared, err := matcher.Prepare(context.Background(), target)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prepared.Match(context.Background(), source)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range res.Families {
		fmt.Printf("  inferred view family: %v\n", f)
	}
	for _, m := range res.ContextualMatches() {
		fmt.Printf("  %v\n", m)
	}
	// Output:
	// == standard matches (the ambiguous Figure 2 situation) ==
	//   inv.code → book.isbn (conf 0.850)
	//   inv.name → book.title (conf 0.820)
	//   inv.price → music.price (conf 0.803)
	//   inv.price → book.price (conf 0.775)
	//   inv.name → music.title (conf 0.697)
	//
	// == contextual matches (the Figure 3 situation) ==
	//   inferred view family: family(inv.type: {1} {2} by name, sig 1.000)
	//   inv.price → music.price [type = 2] (conf 0.963)
	//   inv.price → book.price [type = 1] (conf 0.959)
	//   inv.name → book.title [type = 1] (conf 0.871)
	//   inv.name → music.title [type = 2] (conf 0.870)
	//   inv.code → book.isbn [type = 1] (conf 0.868)
}
