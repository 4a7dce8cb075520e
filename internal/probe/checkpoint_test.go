package probe

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mobiletraffic/internal/netsim"
)

// checkpointCollector builds a small collector with a mix of populated
// and empty cells, including awkward float values, so the round-trip
// tests exercise sparse encoding and bit-exactness together.
func checkpointCollector(t testing.TB) *Collector {
	t.Helper()
	c, err := NewCollectorSized(3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	sessions := []netsim.Session{
		{Service: 0, BS: 0, Day: 0, Minute: 0, Volume: 1, Duration: 0.5},
		{Service: 0, BS: 0, Day: 0, Minute: 1439, Volume: 1e9, Duration: 3600},
		{Service: 1, BS: 2, Day: 1, Minute: 720, Volume: 123456.789, Duration: 17.25},
		{Service: 2, BS: 4, Day: 0, Minute: 60, Volume: 0.1, Duration: 1e-3},
		{Service: 2, BS: 4, Day: 1, Minute: 61, Volume: 7e7, Duration: 299.999},
	}
	for _, s := range sessions {
		if err := c.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// sameCollector fails the test unless a and b are bit-identical:
// dimensions, grids, cell sets and every cell payload float.
func sameCollector(t *testing.T, a, b *Collector) {
	t.Helper()
	if a.NumServices != b.NumServices {
		t.Fatalf("service counts differ: %d vs %d", a.NumServices, b.NumServices)
	}
	aBS, aDays := a.Extent()
	bBS, bDays := b.Extent()
	if aBS != bBS || aDays != bDays {
		t.Fatalf("extents differ: (%d,%d) vs (%d,%d)", aBS, aDays, bBS, bDays)
	}
	if !sameEdges(a.VolumeEdges, b.VolumeEdges) || !sameEdges(a.DurationEdges, b.DurationEdges) {
		t.Fatal("grids differ")
	}
	ak, bk := a.Keys(), b.Keys()
	if len(ak) != len(bk) {
		t.Fatalf("cell counts differ: %d vs %d", len(ak), len(bk))
	}
	for _, key := range ak {
		sa, _ := a.Get(key)
		sb, ok := b.Get(key)
		if !ok {
			t.Fatalf("cell %+v missing after round trip", key)
		}
		if math.Float64bits(sa.Sessions) != math.Float64bits(sb.Sessions) {
			t.Fatalf("cell %+v sessions %v vs %v", key, sa.Sessions, sb.Sessions)
		}
		if !slices.Equal(sa.MinuteCounts, sb.MinuteCounts) {
			t.Fatalf("cell %+v minute counts differ", key)
		}
		runs := [][2][]float64{
			{sa.Volume.P, sb.Volume.P},
			{sa.DurVolSum, sb.DurVolSum},
			{sa.DurCount, sb.DurCount},
		}
		for r, pair := range runs {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("cell %+v run %d lengths differ", key, r)
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("cell %+v run %d bin %d: %v vs %v", key, r, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := checkpointCollector(t)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCollector(t, c, got)
	// The encoding is deterministic: re-encoding the decoded collector
	// reproduces the byte stream exactly.
	var buf2 bytes.Buffer
	if err := got.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoding a decoded checkpoint changed the bytes")
	}
}

func TestCheckpointEmptyCollector(t *testing.T) {
	c, err := NewCollectorSized(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCollector(t, c, got)
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	c := checkpointCollector(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0000.ckpt")
	if err := c.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameCollector(t, c, got)
	// The atomic-rename protocol leaves no temp files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "shard-0000.ckpt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("leftover files after checkpoint write: %v", names)
	}
}

// TestCheckpointCorruption feeds the decoder truncations and
// single-bit flips of a valid checkpoint: all must return an error
// (the CRC trailer catches any flip, truncation hits EOF) and none may
// panic. The whole header and trailer are swept exhaustively; the bulky
// float payload is sampled at a prime stride to keep the test fast.
func TestCheckpointCorruption(t *testing.T) {
	c := checkpointCollector(t)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Every offset in the header and trailer, every 131st in between.
	offsets := func() []int {
		var out []int
		for i := 0; i < len(valid); i++ {
			if i < 64 || i >= len(valid)-8 || i%131 == 0 {
				out = append(out, i)
			}
		}
		return out
	}()

	t.Run("truncated", func(t *testing.T) {
		for _, n := range offsets {
			if _, err := ReadCheckpoint(bytes.NewReader(valid[:n])); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		mut := make([]byte, len(valid))
		for _, i := range offsets {
			for bit := 0; bit < 8; bit++ {
				copy(mut, valid)
				mut[i] ^= 1 << bit
				if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil {
					t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
				}
			}
		}
	})
	t.Run("wrong-magic", func(t *testing.T) {
		mut := append([]byte("NOPE"), valid[4:]...)
		if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("wrong magic: err = %v", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[4] = 0xFF // version low byte
		if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("wrong version: err = %v", err)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		mut := append(append([]byte(nil), valid...), 0x00)
		if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing byte: err = %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := ReadCheckpoint(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty input decoded successfully")
		}
	})
}

// TestCheckpointRejectsSessionMismatch verifies the decoder enforces the
// cell invariant Sessions == Σ MinuteCounts, which every Observe and
// merge path keeps: a CRC-valid checkpoint whose cell breaks it is
// refused.
func TestCheckpointRejectsSessionMismatch(t *testing.T) {
	for _, tamper := range []func(st *DayStats){
		func(st *DayStats) { st.Sessions++ },
		func(st *DayStats) { st.MinuteCounts[7]++ },
		func(st *DayStats) { st.Sessions = math.NaN() },
	} {
		c := checkpointCollector(t)
		st, _ := c.Get(c.Keys()[2])
		tamper(st)
		var buf bytes.Buffer
		if err := c.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "minute counts") {
			t.Fatalf("cell breaking Sessions == sum(MinuteCounts): err = %v", err)
		}
	}
}

// TestCheckpointSlabCap verifies the decoder refuses headers declaring
// a slab larger than MaxCheckpointCells instead of allocating it.
func TestCheckpointSlabCap(t *testing.T) {
	c := checkpointCollector(t)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	old := MaxCheckpointCells
	defer func() { MaxCheckpointCells = old }()
	MaxCheckpointCells = 4 // below the 3*5*2 slab of the test collector
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized slab: err = %v", err)
	}
}

// FuzzReadCheckpoint asserts the decoder's core contract: arbitrary
// bytes must either decode or error — never panic, never allocate
// unboundedly (the slab cap is lowered so hostile headers are cheap to
// reject). A successful decode must re-encode deterministically.
func FuzzReadCheckpoint(f *testing.F) {
	c, err := NewCollectorSized(2, 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []netsim.Session{
		{Service: 0, BS: 0, Day: 0, Minute: 5, Volume: 100, Duration: 3},
		{Service: 1, BS: 2, Day: 0, Minute: 900, Volume: 5e6, Duration: 120},
	} {
		if err := c.Observe(s); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	// A v2 encoding with several cells per service and extreme floats,
	// and the same bytes declaring version 1.
	buf.Reset()
	if err := checkpointCollector(f).WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	v2 := buf.Bytes()
	f.Add(v2)
	v1 := append([]byte(nil), v2...)
	binary.LittleEndian.PutUint16(v1[4:], 1)
	f.Add(v1)

	old := MaxCheckpointCells
	MaxCheckpointCells = 1 << 16
	f.Cleanup(func() { MaxCheckpointCells = old })

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := got.WriteCheckpoint(&re); err != nil {
			t.Fatalf("re-encoding a decoded checkpoint failed: %v", err)
		}
		if !bytes.Equal(data, re.Bytes()) {
			t.Fatal("accepted checkpoint did not re-encode to the same bytes")
		}
	})
}
