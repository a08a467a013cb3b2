// Package checkpoint is the repository's durable-snapshot codec: a small,
// versioned, checksummed binary container plus fixed-width little-endian
// primitive encoders, used by the simulation layers to persist run state
// and resume it byte-identically.
//
// The package deliberately knows nothing about what is being snapshotted.
// It owns three concerns:
//
//   - Framing: WriteFile frames a payload with a magic/version/length/CRC32
//     header; Open verifies all four and returns the payload. Truncated, bit-flipped
//     or version-skewed containers are rejected with descriptive errors —
//     never a panic, never silently-corrupt state (FuzzLoadCheckpoint in the
//     consumers leans on this).
//   - Primitives: Writer appends fixed-width values and length-prefixed
//     slices; Reader is its sticky-error inverse for scalars, blobs and
//     []int32, and a caller that already knows a slice's length reads its
//     prefix and elements one at a time. Every slice read guards its
//     length prefix against the bytes actually remaining, so a hostile
//     length cannot drive a huge allocation. A Writer is reusable: Reset
//     empties it and keeps its buffer, so a run that checkpoints
//     repeatedly encodes every snapshot into the same memory.
//   - Durability: WriteFile writes atomically (tmp file in the target
//     directory, fsync, rename), so a crash mid-write can never leave a
//     half-written checkpoint under the final name. It writes the header
//     and then the caller's payload buffer, so sealing copies nothing.
//     Latest and Rotate manage a directory of numbered snapshots (keep
//     the newest K).
//
// Integers are encoded as 8-byte little-endian words and floats as their
// IEEE-754 bits: the format favors simplicity and exactness (float64 values
// round-trip bit for bit, NaN payloads included) over compactness.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Version is the container format version. Open rejects any other value:
// a reader must never guess at the layout of a payload it does not know.
// v2 appended the sharded-stepping state (shard width, per-shard RNG
// sub-streams, dirty sets) and the series sampler's running sums to the
// swarm payload; v3 drops the sampler's sums and its dirty set again (a
// resumed swarm re-sums them from its state); v4 drops every integer a
// load can recount from the roster, the bitfields and the wiring (the
// membership and degree counters, per-edge reverse indexes and interest
// counts, availability rows, the stale-edge count) and the fault flag and
// fault spec, which the embedded scenario spec already fixes; v5 drops the
// three choke-skip dirty sets, since every scheduled peer now rechokes; v6
// drops the swarm-wide transfer totals (nothing reads them), the saved
// swarm options (the embedded spec derives them), the drained flag and
// the capacity-class bounds (a load recomputes both).
const Version = 6

// magic identifies a checkpoint container; 8 bytes, never versioned (the
// version word after it is).
const magic = "STRMCKP\x00"

// headerSize is magic(8) + version(4) + payload length(8) + CRC32(4).
const headerSize = len(magic) + 4 + 8 + 4

// ErrCorrupt tags every integrity failure Open reports (truncation, bad
// magic, length mismatch, checksum mismatch), so callers can distinguish
// "damaged file" from I/O errors with errors.Is.
var ErrCorrupt = errors.New("corrupt checkpoint")

// ErrVersion tags a container whose format version this build does not
// understand.
var ErrVersion = errors.New("unsupported checkpoint version")

// header returns the container framing that precedes payload: magic,
// version, payload length and the payload's CRC32.
func header(payload []byte) [headerSize]byte {
	var h [headerSize]byte
	copy(h[:], magic)
	binary.LittleEndian.PutUint32(h[8:], Version)
	binary.LittleEndian.PutUint64(h[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(h[20:], crc32.ChecksumIEEE(payload))
	return h
}

// Open verifies a sealed container and returns its payload. Every failure
// mode gets its own descriptive error; integrity failures wrap ErrCorrupt
// and version skew wraps ErrVersion.
func Open(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header",
			ErrCorrupt, len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("%w: file is version %d, this build reads version %d",
			ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(data[12:])
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: header declares a %d-byte payload, %d bytes follow",
			ErrCorrupt, n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(data[20:]) {
		return nil, fmt.Errorf("%w: payload CRC32 %08x, header says %08x",
			ErrCorrupt, sum, binary.LittleEndian.Uint32(data[20:]))
	}
	return payload, nil
}

// Writer appends fixed-width primitives to a growing payload buffer. The
// zero value is ready to use; Reset empties it for the next payload while
// keeping its capacity, so a writer reused across checkpoints stops
// growing once it has held the largest one.
type Writer struct {
	buf []byte
}

// Reset discards the accumulated payload and keeps the buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the accumulated payload size.
func (w *Writer) Len() int { return len(w.buf) }

// U64 appends a uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int (as int64 — the format is architecture-independent).
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// I32 appends an int32.
func (w *Writer) I32(v int32) { w.U64(uint64(int64(v))) }

// F64 appends a float64 as its IEEE-754 bits (exact, NaN-safe).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a bool.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// I32s appends a length-prefixed []int32.
func (w *Writer) I32s(s []int32) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.I32(v)
	}
}

// Ints appends a length-prefixed []int.
func (w *Writer) Ints(s []int) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.Int(v)
	}
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(s []uint64) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.U64(v)
	}
}

// F64s appends a length-prefixed []float64.
func (w *Writer) F64s(s []float64) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.F64(v)
	}
}

// Reader decodes a payload written by Writer. It is sticky-error: the
// first failure (truncation, oversized length prefix) poisons the reader,
// every later read returns zero values, and Err reports the failure —
// callers decode a whole section and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: offset %d: %s", ErrCorrupt, r.off, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail("need %d bytes, %d remain", n, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// I32 reads an int32; values outside the int32 range poison the reader.
func (r *Reader) I32() int32 {
	v := r.I64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a bool; any byte other than 0 or 1 poisons the reader.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte %#x", b[0])
		return false
	}
}

// sliceLen reads and guards a length prefix: the declared element count
// must fit in the bytes remaining (elemSize bytes per element), so a
// corrupt length can never drive an oversized allocation.
func (r *Reader) sliceLen(elemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/elemSize) {
		r.fail("slice declares %d elements, only %d bytes remain", n, r.Remaining())
		return 0
	}
	return int(n)
}

// Blob reads a length-prefixed byte slice (always a fresh copy).
func (r *Reader) Blob() []byte {
	n := r.sliceLen(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Blob()) }

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	n := r.sliceLen(8)
	if n == 0 {
		return nil
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = r.I32()
	}
	return s
}

// fileSystem is the file-system surface WriteFile writes through: the
// temp file's write and sync, and the rename into place.
type fileSystem struct {
	write  func(f *os.File, b []byte) (int, error)
	sync   func(f *os.File) error
	rename func(oldpath, newpath string) error
}

// fileOps is the fileSystem WriteFile uses. Tests swap in failing versions
// to inject write faults.
var fileOps = fileSystem{
	write:  (*os.File).Write,
	sync:   (*os.File).Sync,
	rename: os.Rename,
}

// WriteFile writes the sealed payload atomically: the header and then the
// caller's payload go to a temporary file in the destination directory,
// which is fsynced and renamed over the final path. A crash or a failed
// write at any point leaves either the old checkpoint or the new one under
// path — never a torn mix — and a failure removes the temporary file. It
// returns the file size.
func WriteFile(path string, payload []byte) (int, error) {
	h := header(payload)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) (int, error) {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	if _, err := fileOps.write(tmp, h[:]); err != nil {
		return cleanup(err)
	}
	if _, err := fileOps.write(tmp, payload); err != nil {
		return cleanup(err)
	}
	if err := fileOps.sync(tmp); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := fileOps.rename(tmpName, path); err != nil {
		return cleanup(err)
	}
	return headerSize + len(payload), nil
}

// ReadFile reads and verifies a checkpoint file, returning its payload.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	payload, err := Open(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	return payload, nil
}

// fileExt is the on-disk checkpoint suffix.
const fileExt = ".ckpt"

// FileName returns the canonical name of the checkpoint numbered seq —
// zero-padded so lexicographic and numeric order agree (Latest relies on
// it). The simulation layer numbers checkpoints by resume round.
func FileName(seq int) string {
	return fmt.Sprintf("ckpt-%09d%s", seq, fileExt)
}

// Seq returns the sequence number a checkpoint file name encodes, the
// inverse of FileName; ok is false for any other name.
func Seq(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "ckpt-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, fileExt)
	if !ok {
		return 0, false
	}
	seq, err := strconv.Atoi(digits)
	return seq, err == nil
}

// list returns the checkpoint files in dir, sorted by ascending sequence
// number.
func list(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := Seq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded: lexicographic == numeric
	return names, nil
}

// Latest returns the path of the newest (highest-numbered) checkpoint in
// dir, or an error naming the directory when it holds none.
func Latest(dir string) (string, error) {
	names, err := list(dir)
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("checkpoint: no checkpoint files in %s", dir)
	}
	return filepath.Join(dir, names[len(names)-1]), nil
}

// Rotate deletes the oldest checkpoints in dir until at most keep remain;
// keep <= 0 retains everything. Deletion failures are reported but the
// newest files are always left untouched.
func Rotate(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	names, err := list(dir)
	if err != nil {
		return err
	}
	for _, name := range names[:max(0, len(names)-keep)] {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("checkpoint: rotate: %w", err)
		}
	}
	return nil
}
