// Command timber-load creates a timber database file and loads XML
// documents into it.
//
// Usage:
//
//	timber-load -db bib.timber doc1.xml [doc2.xml ...]
//
// The first document bulk-loads the indices; later documents insert
// incrementally.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"timber/internal/storage"
)

func main() {
	dbPath := flag.String("db", "timber.db", "database file to create")
	pageSize := flag.Int("pagesize", 8192, "page size in bytes")
	poolMB := flag.Int("poolmb", 32, "buffer pool size in MiB")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "timber-load: no input documents")
		flag.Usage()
		os.Exit(2)
	}
	// run owns the database lifecycle; os.Exit only happens after its
	// deferred Close (which persists metadata and dirty pages) has run
	// and its error has been folded into run's result.
	if err := run(*dbPath, *pageSize, *poolMB, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "timber-load:", err)
		os.Exit(1)
	}
}

func run(dbPath string, pageSize, poolMB int, inputs []string) (err error) {
	db, err := storage.Create(dbPath, storage.Options{
		PageSize:  pageSize,
		PoolPages: poolMB * 1024 * 1024 / pageSize,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	for _, path := range inputs {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		start := time.Now()
		doc, err := db.LoadXML(filepath.Base(path), f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		info := db.Documents()[doc-1]
		fmt.Printf("loaded %s as document %d: %d nodes in %v\n",
			path, doc, info.NodeCount, time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("database %s: %d pages of %d bytes\n", dbPath, db.NumPages(), pageSize)
	return nil
}
