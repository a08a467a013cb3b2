package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// seal wraps a payload in the container framing, the bytes WriteFile
// writes: the header, then the payload.
func seal(payload []byte) []byte {
	h := header(payload)
	return append(h[:], payload...)
}

// testPayload is an opaque payload: the container never looks inside.
var testPayload = []byte("stratmatch checkpoint payload \x00\x01\xff")

func TestSealOpenRoundTrip(t *testing.T) {
	got, err := Open(seal(testPayload))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, testPayload) {
		t.Fatalf("Open returned %q, want %q", got, testPayload)
	}
}

// TestOpenCorruptionMatrix hammers Open with every truncation length and a
// bit flip at every byte of a sealed container: each must produce an error
// (ErrCorrupt or ErrVersion), never a success and never a panic.
func TestOpenCorruptionMatrix(t *testing.T) {
	sealed := seal(testPayload)

	for n := 0; n < len(sealed); n++ {
		if _, err := Open(sealed[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation to %d: untagged error %v", n, err)
		}
	}
	for i := range sealed {
		flipped := append([]byte(nil), sealed...)
		flipped[i] ^= 0x40
		if _, err := Open(flipped); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("bit flip at byte %d: untagged error %v", i, err)
		}
	}
}

func TestOpenVersionSkew(t *testing.T) {
	sealed := seal([]byte("x"))
	sealed[8] = Version + 1
	_, err := Open(sealed)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestWriteFileReadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(17))
	n, err := WriteFile(path, testPayload)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if want := len(seal(testPayload)); n != want {
		t.Errorf("WriteFile reported %d bytes, file is %d", n, want)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, testPayload) {
		t.Fatalf("ReadFile returned %q, want %q", got, testPayload)
	}

	// No temp litter after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the checkpoint", len(entries))
	}
}

// writeFaults names the failures injectWriteFault plants in WriteFile.
var writeFaults = []string{"header", "payload", "sync", "rename"}

// injectWriteFault makes WriteFile fail, until the test ends, while it
// writes the checkpoint named target: with ENOSPC on the header write
// ("header"), with EIO after half the payload has reached the file
// ("payload"), with EIO from fsync ("sync") or from the rename into place
// ("rename"). Writes of other checkpoints go through. It returns the
// injected error.
func injectWriteFault(t testing.TB, fault, target string) error {
	t.Helper()
	saved := fileOps
	t.Cleanup(func() { fileOps = saved })
	hit := func(name string) bool { return strings.HasPrefix(filepath.Base(name), target+".tmp") }
	writes := 0 // writes to the target's temp file so far
	switch fault {
	case "header", "payload":
		failAt := 1 // the header is the temp file's first write, the payload its second
		if fault == "payload" {
			failAt = 2
		}
		fileOps.write = func(f *os.File, b []byte) (int, error) {
			if !hit(f.Name()) {
				return saved.write(f, b)
			}
			if writes++; writes < failAt {
				return saved.write(f, b)
			}
			if fault == "header" {
				return 0, syscall.ENOSPC
			}
			n, _ := saved.write(f, b[:len(b)/2])
			return n, syscall.EIO
		}
		if fault == "header" {
			return syscall.ENOSPC
		}
	case "sync":
		fileOps.sync = func(f *os.File) error {
			if hit(f.Name()) {
				return syscall.EIO
			}
			return saved.sync(f)
		}
	case "rename":
		fileOps.rename = func(oldpath, newpath string) error {
			if hit(oldpath) {
				return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
			}
			return saved.rename(oldpath, newpath)
		}
	default:
		t.Fatalf("unknown write fault %q", fault)
	}
	return syscall.EIO
}

// TestWriteFileFaults injects a failure at each step of WriteFile after a
// good checkpoint is on disk: the error names the path and the cause, no
// temp file is left behind, and Latest still returns the good checkpoint,
// which still reads back.
func TestWriteFileFaults(t *testing.T) {
	for _, fault := range writeFaults {
		t.Run(fault, func(t *testing.T) {
			dir := t.TempDir()
			good := filepath.Join(dir, FileName(100))
			if _, err := WriteFile(good, testPayload); err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(dir, FileName(200))
			injected := injectWriteFault(t, fault, FileName(200))
			_, err := WriteFile(bad, testPayload)
			if err == nil {
				t.Fatal("WriteFile succeeded through an injected fault")
			}
			if !errors.Is(err, injected) || !strings.Contains(err.Error(), bad) {
				t.Errorf("error %q does not name %s and wrap %v", err, bad, injected)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) > 0 {
				t.Errorf("temp files left behind: %v", tmps)
			}
			if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("failed checkpoint exists under its final name: %v", err)
			}
			latest, err := Latest(dir)
			if err != nil || latest != good {
				t.Fatalf("Latest = %q, %v; want %s", latest, err, good)
			}
			got, err := ReadFile(latest)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, testPayload) {
				t.Fatalf("good checkpoint reads back %q, want %q", got, testPayload)
			}
		})
	}
}

func TestReadFileRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(0))
	if _, err := WriteFile(path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged file: want ErrCorrupt, got %v", err)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

// TestSeqInvertsFileName: Seq reads back every name FileName writes and
// rejects names that are not checkpoints.
func TestSeqInvertsFileName(t *testing.T) {
	for _, seq := range []int{0, 17, 1200, 123456789} {
		if got, ok := Seq(FileName(seq)); !ok || got != seq {
			t.Fatalf("Seq(%q) = %d, %v", FileName(seq), got, ok)
		}
	}
	for _, name := range []string{"notes.txt", "ckpt-.ckpt", "ckpt-12.tmp", "ckpt-x1.ckpt", "run-3"} {
		if _, ok := Seq(name); ok {
			t.Fatalf("Seq(%q) accepted a non-checkpoint name", name)
		}
	}
}

func TestLatestAndRotate(t *testing.T) {
	dir := t.TempDir()
	if _, err := Latest(dir); err == nil {
		t.Fatal("Latest on empty dir succeeded")
	}
	for _, seq := range []int{3, 12, 7, 100} {
		if _, err := WriteFile(filepath.Join(dir, FileName(seq)), []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	// Non-checkpoint files are ignored by both Latest and Rotate.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latest) != FileName(100) {
		t.Fatalf("Latest = %s", latest)
	}

	if err := Rotate(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, err := list(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != FileName(12) || names[1] != FileName(100) {
		t.Fatalf("after Rotate(2): %v", names)
	}
	// keep <= 0 means retain everything.
	if err := Rotate(dir, 0); err != nil {
		t.Fatal(err)
	}
	if names, _ = list(dir); len(names) != 2 {
		t.Fatalf("Rotate(0) deleted files: %v", names)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("Rotate touched a non-checkpoint file: %v", err)
	}
}
