package analytic

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestBMatchingPinnedBytes pins BMatching's output bytes — the sha256 of
// the %#v rendering of the whole result — for serial and tiled runs, so a
// rewrite of the recurrence's loops cannot reorder a floating-point
// operation unnoticed. The tiled runs use 2 and 4 workers, so the tile
// handoff is pinned at more workers than a small machine has cores.
func TestBMatchingPinnedBytes(t *testing.T) {
	for _, c := range []struct {
		n, b0 int
		p     float64
		value bool
		rows  []int // TrackRows; nil tracks {0, n/2, n−1}
		sum   string
	}{
		{411, 3, 0.03, true, nil, "e287042873faa01096fef10dcf9e937dfa05318a06845ea4a58eeb3044dab91a"},
		{5000, 2, 0.01, false, nil, "bd17fb82c8398fb9db12c28c6fb2fad0cb1e464e6c9354e395a051f60dbe5e3f"},
		{300, 4, 0.2, true, nil, "0d06f18a959031d592339c31f383e694ec6ac51cbc3b7146e421c1bf5ea5c6f8"},
		{1, 2, 0.5, true, nil, "956a8b91814f5f2aa967c7a95ef5ec3421b092bdbceb5eeb5fd5f65caf3d51e9"},
		{2000, 1, 0.005, false, nil, "281ab56a5e41c5ff9475a4478a9f17c4de2d07f053efc32ce06d22c9c858e46c"},
		// b0 = 2 with partner values past the one-peer case.
		{700, 2, 0.02, true, nil, "d4e41d0ae0dcec3c2cf939cc780d2e613d42052969d7b6818f5a57678d822651"},
		// b0 = 2 with adjacent tracked rows, so a tracked row and a
		// tracked column meet inside one span.
		{600, 2, 0.03, true, []int{300, 301}, "3e46d278a0941ee27d960524fa22d27f1b5c967c6fd9d98dac6b0d0a64a8fef7"},
	} {
		for _, w := range []int{1, 2, 4} {
			rows := c.rows
			if rows == nil {
				rows = []int{0, c.n / 2, c.n - 1}
			}
			opt := BMatchingOptions{N: c.n, P: c.p, B0: c.b0, TrackRows: rows, Workers: w}
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
