package analytic

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestBMatchingPinnedBytes pins BMatching's output bytes — the sha256 of
// the %#v rendering of the whole result — for serial and tiled runs, so a
// rewrite of the recurrence's loops cannot reorder a floating-point
// operation unnoticed.
func TestBMatchingPinnedBytes(t *testing.T) {
	for _, c := range []struct {
		n, b0 int
		p     float64
		value bool
		sum   string
	}{
		{411, 3, 0.03, true, "e287042873faa01096fef10dcf9e937dfa05318a06845ea4a58eeb3044dab91a"},
		{5000, 2, 0.01, false, "bd17fb82c8398fb9db12c28c6fb2fad0cb1e464e6c9354e395a051f60dbe5e3f"},
		{300, 4, 0.2, true, "0d06f18a959031d592339c31f383e694ec6ac51cbc3b7146e421c1bf5ea5c6f8"},
		{1, 2, 0.5, true, "956a8b91814f5f2aa967c7a95ef5ec3421b092bdbceb5eeb5fd5f65caf3d51e9"},
		{2000, 1, 0.005, false, "281ab56a5e41c5ff9475a4478a9f17c4de2d07f053efc32ce06d22c9c858e46c"},
	} {
		for _, w := range []int{1, 2} {
			opt := BMatchingOptions{N: c.n, P: c.p, B0: c.b0, TrackRows: []int{0, c.n / 2, c.n - 1}, Workers: w}
			if c.value {
				opt.PartnerValue = make([]float64, c.n)
				for i := range opt.PartnerValue {
					opt.PartnerValue[i] = float64(c.n-i) / 7
				}
			}
			res, err := BMatching(opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", *res)))); got != c.sum {
				t.Errorf("n=%d b0=%d p=%v workers=%d: output sha256 %s, want %s", c.n, c.b0, c.p, w, got, c.sum)
			}
		}
	}
}

// TestOneMatchingPinnedBytes pins OneMatching's output bytes the same way.
func TestOneMatchingPinnedBytes(t *testing.T) {
	res, err := OneMatching(3000, 0.004, 0, 1, 1500, 2999)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ee464606c7a95d94204c73d78bfe6734f6d46b7674755c65c0f780eaa1c6ec2e"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", *res)))); got != want {
		t.Errorf("output sha256 %s, want %s", got, want)
	}
}
