// Comparison: the Table 2 and Section 5 comparison run live — DLPT
// against PHT-over-Chord and P-Grid on the same key corpus, measuring
// routing cost, per-peer state and maintenance traffic.
package main

import (
	"fmt"
	"log"
	"os"

	"dlpt/internal/experiments"
)

func main() {
	fmt.Println("Comparing trie-structured discovery overlays (quick scale).")
	fmt.Println()
	tb, err := experiments.Table2(true, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	ab, err := experiments.AblationMaintenance(true, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := ab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("Reading the tables: P-Grid routes in O(log |Pi|) partitions but")
	fmt.Println("fixes its partition structure; PHT pays one DHT lookup (O(log P)")
	fmt.Println("hops) per trie level; the self-contained DLPT routes in O(D) tree")
	fmt.Println("hops and keeps maintenance off the DHT entirely (paper Section 5).")
}
