package pagestore

import (
	"bytes"
	"math/rand"
	"testing"
)

// lzRoundTrip compresses src and decompresses it back, failing the test
// on any mismatch. Returns the compressed length.
func lzRoundTrip(t *testing.T, c Codec, src []byte) int {
	t.Helper()
	comp := c.Compress(nil, src)
	got := make([]byte, len(src))
	if err := c.Decompress(got, comp); err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d compressed", len(src), len(comp))
	}
	return len(comp)
}

func TestLZRoundTrip(t *testing.T) {
	c := LZ()
	rng := rand.New(rand.NewSource(42))

	t.Run("empty", func(t *testing.T) {
		if n := lzRoundTrip(t, c, nil); n != 0 {
			t.Errorf("empty input compressed to %d bytes", n)
		}
	})
	t.Run("zeros", func(t *testing.T) {
		src := make([]byte, 8192)
		n := lzRoundTrip(t, c, src)
		if n > len(src)/10 {
			t.Errorf("zero page compressed to %d bytes, want < %d", n, len(src)/10)
		}
	})
	t.Run("structured", func(t *testing.T) {
		// B+tree-leaf-like data: repeated key prefixes with small
		// varying suffixes — the shape real pages have.
		var src []byte
		for i := 0; src == nil || len(src) < 8000; i++ {
			src = append(src, []byte("article/author/0000")...)
			src = append(src, byte(i), byte(i>>8), 0, 0)
		}
		n := lzRoundTrip(t, c, src)
		if n > len(src)/2 {
			t.Errorf("structured page compressed to %d/%d bytes, want < half", n, len(src))
		}
	})
	t.Run("random", func(t *testing.T) {
		src := make([]byte, 8192)
		rng.Read(src)
		lzRoundTrip(t, c, src) // incompressible, but must round-trip
	})
	t.Run("short", func(t *testing.T) {
		for n := 1; n < 16; n++ {
			src := make([]byte, n)
			rng.Read(src)
			lzRoundTrip(t, c, src)
		}
	})
	t.Run("runs", func(t *testing.T) {
		// Overlapping matches: long single-byte and two-byte runs.
		src := append(bytes.Repeat([]byte{7}, 4096), bytes.Repeat([]byte{1, 2}, 2048)...)
		lzRoundTrip(t, c, src)
	})
	t.Run("sizes", func(t *testing.T) {
		for _, n := range []int{127, 128, 129, 255, 256, 257, 511, 4095, 8187} {
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(i % 97)
			}
			lzRoundTrip(t, c, src)
		}
	})
}

func TestLZDecompressCorrupt(t *testing.T) {
	c := LZ()
	src := []byte("the quick brown fox jumps over the quick brown dog")
	comp := c.Compress(nil, src)
	dst := make([]byte, len(src))

	// Truncations at every point must error, never panic.
	for i := 0; i < len(comp); i++ {
		if err := c.Decompress(dst, comp[:i]); err == nil {
			t.Errorf("truncated stream (%d/%d bytes) decompressed cleanly", i, len(comp))
		}
	}
	// Wrong output sizes.
	if err := c.Decompress(make([]byte, len(src)-1), comp); err == nil {
		t.Error("short dst decompressed cleanly")
	}
	if err := c.Decompress(make([]byte, len(src)+1), comp); err == nil {
		t.Error("long dst decompressed cleanly")
	}
	// Invalid match offsets: a match token before any output exists.
	bad := []byte{0x80, 1, 0}
	if err := c.Decompress(make([]byte, 4), bad); err == nil {
		t.Error("match before output decompressed cleanly")
	}
	// Zero offset.
	bad = []byte{0x00, 'x', 0x80, 0, 0}
	if err := c.Decompress(make([]byte, 5), bad); err == nil {
		t.Error("zero-offset match decompressed cleanly")
	}
}

func FuzzLZDecompress(f *testing.F) {
	c := LZ()
	f.Add([]byte{}, 16)
	f.Add([]byte{0x00, 'x'}, 1)
	f.Add([]byte{0x80, 1, 0}, 8)
	f.Add(c.Compress(nil, bytes.Repeat([]byte("ab"), 64)), 128)
	f.Fuzz(func(t *testing.T, comp []byte, size int) {
		if size < 0 || size > 1<<16 {
			return
		}
		dst := make([]byte, size)
		_ = c.Decompress(dst, comp) // must not panic or write out of bounds
	})
}

func FuzzLZRoundTrip(f *testing.F) {
	c := LZ()
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0}, 512))
	f.Fuzz(func(t *testing.T, src []byte) {
		comp := c.Compress(nil, src)
		got := make([]byte, len(src))
		if err := c.Decompress(got, comp); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("round trip mismatch")
		}
	})
}

// TestStoreWithCodec exercises the compressed slot path end to end:
// write pages through the pool, evict, flush, and read them back.
func TestStoreWithCodec(t *testing.T) {
	st, err := CreateTemp(Options{PageSize: 512, PoolPages: 4, Codec: LZ()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if got, want := st.PageSize(), 512-codecHeaderLen; got != want {
		t.Fatalf("PageSize() = %d, want %d", got, want)
	}
	if st.CodecName() != "lz" {
		t.Fatalf("CodecName() = %q, want lz", st.CodecName())
	}

	// Page images: compressible, incompressible, zero.
	rng := rand.New(rand.NewSource(7))
	images := make([][]byte, 16)
	for i := range images {
		img := make([]byte, st.PageSize())
		switch i % 3 {
		case 0:
			for j := range img {
				img[j] = byte(i)
			}
		case 1:
			rng.Read(img)
		}
		images[i] = img
		p, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		copy(p.Data(), img)
		st.Unpin(p, true)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.DropCache(); err != nil {
		t.Fatal(err)
	}
	for i, img := range images {
		p, err := st.Fetch(PageID(i))
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !bytes.Equal(p.Data(), img) {
			t.Errorf("page %d differs after codec round trip", i)
		}
		st.Unpin(p, false)
	}
	stats := st.Stats()
	if stats.UncompressedBytes == 0 || stats.CompressedBytes == 0 {
		t.Errorf("codec counters not recorded: %+v", stats)
	}
	if stats.CompressionRatio() >= 1 {
		t.Errorf("mixed workload ratio %.2f, want < 1", stats.CompressionRatio())
	}
}

// TestStoreCodecReopen validates the on-disk layout: the file is a
// multiple of the slot size and survives a close/open cycle.
func TestStoreCodecReopen(t *testing.T) {
	path := t.TempDir() + "/codec.db"
	opts := Options{PageSize: 512, PoolPages: 8, Codec: LZ()}
	st, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte("posting"), 80)[:st.PageSize()]
	for i := 0; i < 5; i++ {
		p, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		copy(p.Data(), img)
		st.Unpin(p, true)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumPages() != 5 {
		t.Fatalf("NumPages = %d, want 5", st.NumPages())
	}
	for i := 0; i < 5; i++ {
		p, err := st.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data(), img) {
			t.Errorf("page %d differs after reopen", i)
		}
		st.Unpin(p, false)
	}
}
