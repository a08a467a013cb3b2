package btsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stratmatch/internal/checkpoint"
)

// codecSample holds a field of every kind the checkpoint codec walks.
type codecSample struct {
	u           uint64
	n, neg      int
	i, lo, hi   int32
	f, nan      float64
	yes, no     bool
	blob, empty []byte
	s           string
	i32s        []int32
	intoI32     [3]int32
	intoInt     [2]int
	intoU64     [2]uint64
	intoF64     [2]float64
	intoBytes   [3]byte
}

func (v *codecSample) walk(c *codec) {
	c.u64(&v.u)
	c.int(&v.n)
	c.int(&v.neg)
	c.i32(&v.i)
	c.i32(&v.lo)
	c.i32(&v.hi)
	c.f64(&v.f)
	c.f64(&v.nan)
	c.bool(&v.yes)
	c.bool(&v.no)
	c.blob(&v.blob)
	c.blob(&v.empty)
	c.str(&v.s)
	c.i32s(&v.i32s)
	c.i32sInto(v.intoI32[:], "i32s")
	c.intsInto(v.intoInt[:], "ints")
	c.u64sInto(v.intoU64[:], "u64s")
	c.f64sInto(v.intoF64[:], "f64s")
	c.bytesInto(v.intoBytes[:], "bytes")
}

// nanBits is a NaN with a payload, which must survive bit for bit.
const nanBits = 0x7ff8_dead_beef_0001

func sampleValues() codecSample {
	return codecSample{
		u: 0xdeadbeefcafef00d, n: 123456789, neg: -42,
		i: -7, lo: math.MinInt32, hi: math.MaxInt32,
		f: math.Pi, nan: math.Float64frombits(nanBits),
		yes: true, blob: []byte{9, 8, 7}, s: "stratmatch",
		i32s:      []int32{-1, 0, 1 << 30},
		intoI32:   [3]int32{4, -5, 6},
		intoInt:   [2]int{5, -5},
		intoU64:   [2]uint64{1, math.MaxUint64},
		intoF64:   [2]float64{0.5, math.Inf(-1)},
		intoBytes: [3]byte{0, 1, 255},
	}
}

func encodeSample(v codecSample) []byte {
	c := codec{}
	v.walk(&c)
	return c.buf
}

// TestCodecRoundTrip: every primitive reads back the value written, NaN
// payload bits and negative ints included, an empty blob reads back nil,
// and the payload is consumed exactly.
func TestCodecRoundTrip(t *testing.T) {
	want := sampleValues()
	payload := encodeSample(want)
	var got codecSample
	rest := -1
	if err := readWalk(payload, func(c *codec) { got.walk(c); rest = c.remaining() }); err != nil {
		t.Fatal(err)
	}
	if rest != 0 {
		t.Errorf("%d bytes left over", rest)
	}
	if bits := math.Float64bits(got.nan); bits != nanBits {
		t.Errorf("NaN bits %#x, want %#x", bits, uint64(nanBits))
	}
	got.nan, want.nan = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if again := encodeSample(got); !bytes.Equal(again, encodeSample(want)) {
		t.Error("re-encoding the decoded values changed the bytes")
	}
}

// TestCodecTruncatedPayload: every truncation of a payload holding every
// field kind ends the walk with a corrupt-checkpoint error naming the
// offset, never a panic.
func TestCodecTruncatedPayload(t *testing.T) {
	payload := encodeSample(sampleValues())
	for n := 0; n < len(payload); n++ {
		err := readWalk(payload[:n], new(codecSample).walk)
		if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), "offset ") {
			t.Fatalf("truncation to %d of %d bytes: %v, want a corrupt-checkpoint error naming the offset",
				n, len(payload), err)
		}
	}
}

// TestCodecHostileCounts: a length word larger than the bytes left is
// rejected before any allocation it would size, and a length word that
// disagrees with a slice whose length read mode knows is rejected.
func TestCodecHostileCounts(t *testing.T) {
	var b []byte
	var s string
	var i32s []int32
	var dst [2]int
	reads := []struct {
		name, want string
		walk       func(c *codec)
	}{
		{"blob", "slice declares", func(c *codec) { c.blob(&b) }},
		{"str", "slice declares", func(c *codec) { c.str(&s) }},
		{"i32s", "slice declares", func(c *codec) { c.i32s(&i32s) }},
		{"intsInto", "ints has", func(c *codec) { c.intsInto(dst[:], "ints") }},
	}
	for _, count := range []uint64{3, 1 << 20, 1 << 60, math.MaxUint64} {
		// Two words follow the count: too few for any count above 2
		// elements of 8 bytes, or 16 of one byte.
		payload := binary.LittleEndian.AppendUint64(nil, count)
		payload = append(payload, make([]byte, 16)...)
		for _, r := range reads {
			if count == 3 && (r.name == "blob" || r.name == "str") {
				continue // three bytes are there
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := readWalk(payload, r.walk)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), r.want) {
				t.Errorf("%s with count %d: %v, want an error containing %q", r.name, count, err, r.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<16 {
				t.Errorf("%s with count %d allocated %d bytes before rejecting it", r.name, count, alloc)
			}
		}
	}
}

// TestCodecRejectsBadBoolAndI32Overflow: a bool byte above 1 and a word
// outside the int32 range are corrupt, wherever the int32 sits.
func TestCodecRejectsBadBoolAndI32Overflow(t *testing.T) {
	word := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	var ok bool
	var v int32
	var vs []int32
	var dst [1]int32
	for _, tc := range []struct {
		name, want string
		payload    []byte
		walk       func(c *codec)
	}{
		{"bool 2", "bool byte 0x2", []byte{2}, func(c *codec) { c.bool(&ok) }},
		{"bool 0xff", "bool byte 0xff", []byte{0xff}, func(c *codec) { c.bool(&ok) }},
		{"i32 max+1", "overflows int32", word(math.MaxInt32 + 1), func(c *codec) { c.i32(&v) }},
		{"i32 min-1", "overflows int32", word(math.MinInt32 - 1), func(c *codec) { c.i32(&v) }},
		{"i32s element", "overflows int32", word(1, math.MaxInt32+1), func(c *codec) { c.i32s(&vs) }},
		{"i32sInto element", "overflows int32", word(1, math.MinInt32-1), func(c *codec) { c.i32sInto(dst[:], "i32s") }},
	} {
		err := readWalk(tc.payload, tc.walk)
		if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a corrupt-checkpoint error containing %q", tc.name, err, tc.want)
		}
	}
}
