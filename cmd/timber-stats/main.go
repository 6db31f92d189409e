// Command timber-stats inspects a timber database file: the document
// catalog, the distinct tags with their posting counts, and the storage
// footprint. It is the metadata manager's window for operators.
//
// Usage:
//
//	timber-stats -db bib.timber [-tags]
package main

import (
	"flag"
	"fmt"
	"os"

	"timber/internal/storage"
)

func main() {
	dbPath := flag.String("db", "timber.db", "database file")
	showTags := flag.Bool("tags", true, "list tags with posting counts")
	flag.Parse()
	if err := run(*dbPath, *showTags); err != nil {
		fmt.Fprintln(os.Stderr, "timber-stats:", err)
		os.Exit(1)
	}
}

func run(dbPath string, showTags bool) (err error) {
	db, err := storage.Open(dbPath, storage.Options{})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	fmt.Printf("database: %s\n", dbPath)
	fmt.Printf("pages:    %d (%.1f MiB at 8 KiB)\n\n", db.NumPages(), float64(db.NumPages())*8/1024)

	docs := db.Documents()
	fmt.Printf("documents (%d):\n", len(docs))
	var totalNodes uint64
	for _, d := range docs {
		fmt.Printf("  %3d  %-30s %12d nodes\n", d.ID, d.Name, d.NodeCount)
		totalNodes += d.NodeCount
	}
	fmt.Printf("  total %d nodes\n", totalNodes)

	if !showTags {
		return nil
	}
	tags, err := db.Tags()
	if err != nil {
		return err
	}
	fmt.Printf("\ntags (%d):\n", len(tags))
	for _, tag := range tags {
		posts, err := db.TagPostings(tag)
		if err != nil {
			return err
		}
		fmt.Printf("  %-24s %12d\n", tag, len(posts))
	}
	return nil
}
