package ctxmatch_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"strings"

	"ctxmatch"
)

// ExampleMatcher_Prepare shows the prepared-target session shape: one
// curated catalog prepared once, then a batch of incoming source
// schemas matched against it with bounded concurrency, per-source error
// isolation and JSON-ready results.
func ExampleMatcher_Prepare() {
	catalog := loadCatalogSchema()  // the long-lived target catalog
	incoming := loadSourceSchemas() // source schemas arriving over time

	matcher, err := ctxmatch.New(ctxmatch.WithParallelism(8))
	if err != nil {
		log.Fatal(err)
	}

	// Prepare trains the target classifiers and scans the catalog's
	// columns exactly once, pinning them into an immutable handle.
	target, err := matcher.Prepare(context.Background(), catalog)
	if err != nil {
		log.Fatal(err)
	}

	// Fan the batch across the worker pool. Results come back in input
	// order; a bad schema yields a *SourceError without failing its
	// siblings.
	results, err := target.MatchAll(context.Background(), incoming)
	if err != nil {
		log.Printf("some sources failed: %v", err)
	}
	for i, res := range results {
		if res == nil {
			continue // this source's error is inside err
		}
		for _, m := range res.ContextualMatches() {
			fmt.Printf("%s: %v\n", incoming[i].Name, m)
		}
		wire, _ := json.Marshal(res) // versioned, cross-process wire format
		_ = wire
	}
	// Output:
	// RS: inv.descr → book.format [type = 1] (conf 0.866)
	// RS: inv.code → music.asin [type = 2] (conf 0.864)
	// RS: inv.name → book.title [type = 1] (conf 0.847)
	// RS: inv.descr → music.label [type = 2] (conf 0.827)
	// RS: inv.name → music.title [type = 2] (conf 0.822)
}

// loadCatalogSchema returns the catalog of Figure 1(b-c): separate book
// and music tables.
func loadCatalogSchema() *ctxmatch.Schema {
	return ctxmatch.NewSchema("RT",
		readTable("book", `title:text,isbn:string,format:string
leaves of grass,0195128,hardcover
heart of darkness,0486611,paperback
ulysses,0679722,paperback
the odyssey,0140268,hardcover
walden,0486284,hardcover
`),
		readTable("music", `title:text,asin:string,label:string
the white album,B002UAX,apple cd
kind of blue,B000002,columbia cd
thriller,B0000025,epic cd
pet sounds,B000002U,capitol cd
nevermind,B000003T,geffen cd
`))
}

// loadSourceSchemas returns the combined inventory of Figure 1(a):
// books and CDs in one table, with a type column saying which is which.
func loadSourceSchemas() []*ctxmatch.Schema {
	inv := readTable("inv", `id:int,name:text,type:int,instock:bool,code:string,descr:string
0,leaves of grass,1,true,0195128,hardcover
1,the white album,2,true,B002UAX,audio cd
2,heart of darkness,1,false,0486611,paperback
3,wasteland,1,true,0393995,paperback
4,hotel california,2,false,B002GVO,elektra cd
5,moby dick,1,true,0142437,paperback
6,kind of blue,2,true,B000002,columbia cd
7,dubliners,1,false,0140186,hardcover
8,abbey road,2,true,B00005U,apple cd
9,war and peace,1,true,1400079,hardcover
10,rumours,2,false,B000002K,warner cd
11,blue train,2,true,B0000CC,blue note cd
`)
	return []*ctxmatch.Schema{ctxmatch.NewSchema("RS", inv)}
}

func readTable(name, csv string) *ctxmatch.Table {
	t, err := ctxmatch.ReadCSV(name, strings.NewReader(csv))
	if err != nil {
		log.Fatal(err)
	}
	return t
}
