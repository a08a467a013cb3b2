// Package checkpoint is the repository's durable-snapshot container: a
// small, versioned, checksummed frame around an opaque payload, written
// atomically and kept in a directory of numbered files. The simulation
// layer (btsim's codec) encodes and decodes the payload; this package
// never looks inside it.
//
// It owns two concerns:
//
//   - Framing: WriteFile frames a payload with a magic/version/length/CRC32
//     header; Open verifies all four and returns the payload. Truncated,
//     bit-flipped or version-skewed containers are rejected with
//     descriptive errors — never a panic, never silently-corrupt state
//     (FuzzLoadCheckpoint in the consumers leans on this).
//   - Durability: WriteFile writes atomically (tmp file in the target
//     directory, fsync, rename), so a crash mid-write can never leave a
//     half-written checkpoint under the final name. It writes the header
//     and then the caller's payload buffer, so sealing copies nothing.
//     FileName, Seq, Latest and Rotate name and manage a directory of
//     numbered snapshots (keep the newest K).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// magic, length mismatch, checksum mismatch), and every payload a decoder
// cannot read, so callers can distinguish "damaged file" from I/O errors
// with errors.Is.
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
