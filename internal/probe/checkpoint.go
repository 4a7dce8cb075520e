package probe

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
)

// Checkpoint codec: the compact binary serialization of a (partial)
// Collector that a sharded campaign writes after each completed shard
// and reloads on resume. The layout, all little-endian:
//
//	magic "MTCP" | version u16
//	numServices u32 | numBS u32 | days u32 | minutesPerDay u32
//	numVolumeEdges u32 | numDurationEdges u32 | numCells u64
//	volume edges  [numVolumeEdges]f64
//	duration edges [numDurationEdges]f64
//	numCells × { slabIndex u64 | Sessions f64
//	             | MinuteCounts [minutesPerDay]u32
//	             | Volume.P    [numVolumeEdges-1]f64
//	             | DurVolSum   [numDurationEdges-1]f64
//	             | DurCount    [numDurationEdges-1]f64 }
//	crc32c u32   (Castagnoli, over every preceding byte)
//
// Only populated cells are written, in ascending slab order, so the
// encoding of a collector is deterministic and a sparse shard stays
// small. Floats are stored as raw IEEE-754 bits, so a decoded
// collector is bit-identical to the encoded one — the property the
// resume-determinism argument stands on (DESIGN.md). Version 1 stored
// MinuteCounts as f64; its files are rejected as an unsupported
// version, which a resuming campaign treats as a shard to recompute.
const (
	checkpointMagic   = "MTCP"
	CheckpointVersion = 2
)

// MaxCheckpointCells caps the (services × BS × days) slab size a
// decoder will allocate, guarding ReadCheckpoint against corrupt or
// hostile headers that declare absurd dimensions. Operators running
// genuinely nationwide campaigns (the paper's 282k BS × 45 days) may
// raise it before decoding.
var MaxCheckpointCells = uint64(1) << 27

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Extent returns the collector's current (numBS, days) slab extent.
func (c *Collector) Extent() (numBS, days int) { return c.numBS, c.days }

// crcWriter accumulates a CRC-32C over everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	return n, err
}

// crcReader accumulates a CRC-32C over everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crcTable, p[:n])
	return n, err
}

// WriteCheckpoint encodes the collector in the checkpoint format.
func (c *Collector) WriteCheckpoint(w io.Writer) error {
	span := obs.StartSpan("checkpoint/write")
	defer span.End()
	cw := &crcWriter{w: w}
	var scratch [8]byte
	putU16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		_, err := cw.Write(scratch[:2])
		return err
	}
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := cw.Write(scratch[:4])
		return err
	}
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := cw.Write(scratch[:8])
		return err
	}
	// Reusable encode buffer sized for the largest run.
	maxRun := netsim.MinutesPerDay * 4
	if n := len(c.VolumeEdges) * 8; n > maxRun {
		maxRun = n
	}
	if n := len(c.DurationEdges) * 8; n > maxRun {
		maxRun = n
	}
	buf := make([]byte, maxRun)
	putF64s := func(vs []float64) error {
		b := buf[:len(vs)*8]
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
		}
		_, err := cw.Write(b)
		return err
	}
	putU32s := func(vs []uint32) error {
		b := buf[:len(vs)*4]
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[i*4:], v)
		}
		_, err := cw.Write(b)
		return err
	}

	if _, err := cw.Write([]byte(checkpointMagic)); err != nil {
		return err
	}
	if err := putU16(CheckpointVersion); err != nil {
		return err
	}
	for _, v := range []uint32{
		uint32(c.NumServices), uint32(c.numBS), uint32(c.days),
		netsim.MinutesPerDay, uint32(len(c.VolumeEdges)), uint32(len(c.DurationEdges)),
	} {
		if err := putU32(v); err != nil {
			return err
		}
	}
	var nCells uint64
	for _, st := range c.cells {
		if st != nil {
			nCells++
		}
	}
	if err := putU64(nCells); err != nil {
		return err
	}
	if err := putF64s(c.VolumeEdges); err != nil {
		return err
	}
	if err := putF64s(c.DurationEdges); err != nil {
		return err
	}
	for i, st := range c.cells {
		if st == nil {
			continue
		}
		if err := putU64(uint64(i)); err != nil {
			return err
		}
		if err := putU64(math.Float64bits(st.Sessions)); err != nil {
			return err
		}
		if err := putU32s(st.MinuteCounts); err != nil {
			return err
		}
		for _, run := range [][]float64{st.Volume.P, st.DurVolSum, st.DurCount} {
			if err := putF64s(run); err != nil {
				return err
			}
		}
	}
	obs.CounterOf("campaign_checkpoint_cells_total").Add(int64(nCells))
	crc := cw.crc
	binary.LittleEndian.PutUint32(scratch[:4], crc)
	_, err := w.Write(scratch[:4]) // trailer is outside its own CRC
	return err
}

// ReadCheckpoint decodes a checkpoint into a fresh Collector. It
// validates the magic, version, dimensions and trailing CRC, and
// returns an error — never panics — on truncated, bit-flipped or
// otherwise malformed input.
func ReadCheckpoint(r io.Reader) (*Collector, error) {
	span := obs.StartSpan("checkpoint/read")
	defer span.End()
	br := bufio.NewReaderSize(r, 1<<16)
	cr := &crcReader{r: br}
	var scratch [8]byte
	getU16 := func() (uint16, error) {
		if _, err := io.ReadFull(cr, scratch[:2]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint16(scratch[:2]), nil
	}
	getU32 := func() (uint32, error) {
		if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	getU64 := func() (uint64, error) {
		if _, err := io.ReadFull(cr, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	var buf []byte
	getRun := func(need int) ([]byte, error) {
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		b := buf[:need]
		_, err := io.ReadFull(cr, b)
		return b, err
	}
	getF64s := func(dst []float64) error {
		b, err := getRun(len(dst) * 8)
		if err != nil {
			return err
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		return nil
	}
	// getCounts decodes a minute-count run and returns its total.
	getCounts := func(dst []uint32) (uint64, error) {
		b, err := getRun(len(dst) * 4)
		if err != nil {
			return 0, err
		}
		var sum uint64
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(b[i*4:])
			sum += uint64(dst[i])
		}
		return sum, nil
	}

	if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
		return nil, fmt.Errorf("probe: checkpoint header: %w", err)
	}
	if string(scratch[:4]) != checkpointMagic {
		return nil, fmt.Errorf("probe: not a checkpoint (magic %q)", scratch[:4])
	}
	version, err := getU16()
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint version: %w", err)
	}
	if version != CheckpointVersion {
		return nil, fmt.Errorf("probe: unsupported checkpoint version %d (have %d)", version, CheckpointVersion)
	}
	var dims [6]uint32
	for i := range dims {
		if dims[i], err = getU32(); err != nil {
			return nil, fmt.Errorf("probe: checkpoint dims: %w", err)
		}
	}
	numServices, numBS, days := dims[0], dims[1], dims[2]
	minutes, nVolEdges, nDurEdges := dims[3], dims[4], dims[5]
	if numServices == 0 || numServices > 1<<20 {
		return nil, fmt.Errorf("probe: checkpoint declares %d services", numServices)
	}
	if minutes != netsim.MinutesPerDay {
		return nil, fmt.Errorf("probe: checkpoint minute grid %d != %d", minutes, netsim.MinutesPerDay)
	}
	if nVolEdges < 2 || nVolEdges > 1<<20 || nDurEdges < 2 || nDurEdges > 1<<20 {
		return nil, fmt.Errorf("probe: checkpoint edge counts %d/%d out of range", nVolEdges, nDurEdges)
	}
	slab := uint64(numServices) * uint64(numBS) * uint64(days)
	if slab > MaxCheckpointCells {
		return nil, fmt.Errorf("probe: checkpoint slab %d cells exceeds cap %d", slab, MaxCheckpointCells)
	}
	nCells, err := getU64()
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint cell count: %w", err)
	}
	if nCells > slab {
		return nil, fmt.Errorf("probe: checkpoint declares %d cells in a %d-cell slab", nCells, slab)
	}
	volEdges := make([]float64, nVolEdges)
	durEdges := make([]float64, nDurEdges)
	if err := getF64s(volEdges); err != nil {
		return nil, fmt.Errorf("probe: checkpoint volume edges: %w", err)
	}
	if err := getF64s(durEdges); err != nil {
		return nil, fmt.Errorf("probe: checkpoint duration edges: %w", err)
	}
	c, err := NewCollectorGrids(int(numServices), int(numBS), int(days), volEdges, durEdges)
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint grids: %w", err)
	}
	prev := int64(-1)
	for n := uint64(0); n < nCells; n++ {
		idx, err := getU64()
		if err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d index: %w", n, err)
		}
		if idx >= slab || int64(idx) <= prev {
			return nil, fmt.Errorf("probe: checkpoint cell index %d out of order or range", idx)
		}
		prev = int64(idx)
		st := c.newCell()
		c.cells[idx] = st
		bits, err := getU64()
		if err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d: %w", n, err)
		}
		st.Sessions = math.Float64frombits(bits)
		total, err := getCounts(st.MinuteCounts)
		if err != nil {
			return nil, fmt.Errorf("probe: checkpoint cell %d payload: %w", n, err)
		}
		// The sum of at most 1440 uint32 counts is exact in a float64.
		if st.Sessions != float64(total) {
			return nil, fmt.Errorf("probe: checkpoint cell %d holds %v sessions but %d minute counts", n, st.Sessions, total)
		}
		for _, run := range [][]float64{st.Volume.P, st.DurVolSum, st.DurCount} {
			if err := getF64s(run); err != nil {
				return nil, fmt.Errorf("probe: checkpoint cell %d payload: %w", n, err)
			}
		}
	}
	want := cr.crc
	// The trailer is read from the underlying reader so it does not
	// fold into its own checksum.
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("probe: checkpoint trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(scratch[:4]); got != want {
		return nil, fmt.Errorf("probe: checkpoint CRC mismatch (stored %08x, computed %08x)", got, want)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("probe: trailing bytes after checkpoint")
	}
	return c, nil
}

// WriteCheckpointFile writes the checkpoint crash-safely: the encoding
// goes to a temporary file in the destination directory, is fsynced,
// and only then renamed over path, so a crash mid-write can never
// leave a torn checkpoint under the final name. The directory is
// fsynced after the rename so the new name itself survives a crash.
func (c *Collector) WriteCheckpointFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("probe: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := c.WriteCheckpoint(bw); err != nil {
		tmp.Close()
		return fmt.Errorf("probe: checkpoint encode: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("probe: checkpoint flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("probe: checkpoint fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("probe: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("probe: checkpoint rename: %w", err)
	}
	syncDir(dir)
	obs.CounterOf("campaign_checkpoint_writes_total").Inc()
	return nil
}

// ReadCheckpointFile decodes a checkpoint file written by
// WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Collector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint open: %w", err)
	}
	defer f.Close()
	c, err := ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("probe: checkpoint %s: %w", filepath.Base(path), err)
	}
	obs.CounterOf("campaign_checkpoint_loads_total").Inc()
	return c, nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
// Best-effort: some platforms (and some filesystems) reject directory
// fsync, and the rename itself is already atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
