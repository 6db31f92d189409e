package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

const formatTestDoc = `<bib>
  <article key="a1"><author>A</author><title>T1</title><year>2000</year></article>
  <article key="a2"><author>B</author><author>A</author><title>T2</title><year>2001</year></article>
</bib>`

func buildFormatDB(t *testing.T, path string) {
	t.Helper()
	db, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXML("bib.xml", strings.NewReader(formatTestDoc)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSniffsFormat reopens a database with plain options: Open must
// read the page size and page codec from the file itself and serve the
// loaded data unchanged.
func TestOpenSniffsFormat(t *testing.T) {
	t.Run("compressed", func(t *testing.T) {
		path := t.TempDir() + "/db"
		buildFormatDB(t, path)
		db, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		info, err := db.SizeInfo()
		if err != nil {
			t.Fatal(err)
		}
		if info.Codec != "lz" {
			t.Errorf("reopened database codec = %q, want lz", info.Codec)
		}
		ps, err := db.TagPostings("author")
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != 3 {
			t.Fatalf("got %d author postings, want 3", len(ps))
		}
		content, err := db.Content(ps[0])
		if err != nil || content != "A" {
			t.Fatalf("Content = %q, %v", content, err)
		}
		vp, err := db.ValuePostings("author", "A")
		if err != nil {
			t.Fatal(err)
		}
		if len(vp) != 2 {
			t.Fatalf("got %d value postings for author=A, want 2", len(vp))
		}
	})
}

// TestOpenOldFormat expects ErrNeedsRebuild — the detect-and-rebuild
// contract — from every layout this build no longer reads: the v2
// files (magic at offset 0, and the old 5-byte codec framing with the
// magic at offset 5), and v3 files whose meta blob carries any flags
// byte but the fixed one or lacks the value index.
func TestOpenOldFormat(t *testing.T) {
	v2 := func(head []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			blob := make([]byte, 8192)
			copy(blob, head)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	v3 := func(off int, val byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			buildFormatDB(t, path)
			patchMeta(t, path, off, val)
		}
	}
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, path string)
	}{
		{"uncompressed", v2([]byte("TIMBERGO\x02\x00"))},
		{"page-codec", v2(append([]byte{0, 0, 0, 0, 0}, []byte("TIMBERGO\x02\x00")...))},
		{"v3-flags-0", v3(39, 0)},
		{"v3-no-value-index", v3(30, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/old.db"
			tc.write(t, path)
			_, err := Open(path, Options{})
			if !errors.Is(err, ErrNeedsRebuild) {
				t.Fatalf("Open: %v, want ErrNeedsRebuild", err)
			}
		})
	}
}

// patchMeta overwrites one byte of the checkpointed meta blob on page
// 0 and reseals the raw slot's checksum, so only the blob's content
// decides how Open treats the file.
func patchMeta(t *testing.T, path string, off int, val byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clen := binary.LittleEndian.Uint32(b[1:5])
	b[pagestore.SlotHeaderLen+off] = val
	payload := b[pagestore.SlotHeaderLen : pagestore.SlotHeaderLen+int(clen)]
	binary.LittleEndian.PutUint32(b[5:9], crc32.Checksum(payload, metaCastagnoli))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalSecondDocument exercises the singleton-block insert
// path: a second document goes through per-key inserts, and its
// postings must interleave correctly with the bulk-loaded first.
func TestIncrementalSecondDocument(t *testing.T) {
	db, err := CreateTemp(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXML("one.xml", strings.NewReader(formatTestDoc)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXML("two.xml", strings.NewReader(formatTestDoc)); err != nil {
		t.Fatal(err)
	}
	ps, err := db.TagPostings("author")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 6 {
		t.Fatalf("got %d author postings, want 6", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		a, b := ps[i-1], ps[i]
		if a.Interval.Doc > b.Interval.Doc ||
			(a.Interval.Doc == b.Interval.Doc && a.Interval.Start >= b.Interval.Start) {
			t.Fatalf("postings out of document order at %d: %+v then %+v", i, a, b)
		}
	}
	// Per-document cursor sees only its document.
	c := db.OpenTagDocCursor("author", xmltree.DocID(2))
	n := 0
	for {
		p, ok := c.Next()
		if !ok {
			break
		}
		if p.Interval.Doc != 2 {
			t.Fatalf("doc cursor returned doc %d", p.Interval.Doc)
		}
		n++
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("doc cursor saw %d postings, want 3", n)
	}
}

// TestSizeInfo sanity-checks the bytes-on-disk breakdown.
func TestSizeInfo(t *testing.T) {
	db, err := CreateTemp(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXML("bib.xml", strings.NewReader(formatTestDoc)); err != nil {
		t.Fatal(err)
	}
	info, err := db.SizeInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Codec != "lz" {
		t.Errorf("default DB should be lz-paged, got %+v", info)
	}
	if info.HeapPages == 0 || info.IndexPages == 0 || info.TagCells == 0 {
		t.Errorf("zero components: %+v", info)
	}
	if got := info.HeapPages + info.IndexPages; got > info.TotalPages {
		t.Errorf("components (%d pages) exceed total %d", got, info.TotalPages)
	}
	if info.TotalBytes != uint64(info.TotalPages)*uint64(info.PageSize) {
		t.Errorf("TotalBytes %d != pages %d * slot %d", info.TotalBytes, info.TotalPages, info.PageSize)
	}
}
