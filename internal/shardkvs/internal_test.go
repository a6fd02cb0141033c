package shardkvs

// White-box checks for the small pure helpers behind quorum writes and
// deadline-based TTL fan-out.

import (
	"testing"
	"time"
)

func TestSetExRemainingShrinksTowardDeadline(t *testing.T) {
	deadline := time.Now().Add(100 * time.Millisecond)
	r1 := setExRemaining(deadline)
	time.Sleep(40 * time.Millisecond)
	r2 := setExRemaining(deadline)
	if r1 <= r2 {
		t.Fatalf("remaining TTL must shrink as the deadline nears: %v then %v", r1, r2)
	}
	if d := r1 - r2; d < 30*time.Millisecond {
		t.Fatalf("remaining TTL shrank by %v, want ~40ms", d)
	}
}

func TestSetExRemainingClampsPastDeadline(t *testing.T) {
	if got := setExRemaining(time.Now().Add(-time.Second)); got != time.Millisecond {
		t.Fatalf("past deadline must clamp to 1ms, got %v", got)
	}
}

func TestQuorumResolution(t *testing.T) {
	cases := []struct {
		name   string
		w      int
		copies int
		want   int
	}{
		{"default-strict", 0, 3, 3},
		{"relaxed", 1, 3, 1},
		{"partial", 2, 3, 2},
		{"clamped-to-copies", 5, 2, 2},
		{"negative-means-all", -1, 2, 2},
	}
	for _, c := range cases {
		r := &Ring{opts: Options{WriteQuorum: c.w}}
		if got := r.quorum(c.copies); got != c.want {
			t.Fatalf("%s: quorum(%d) with W=%d = %d, want %d", c.name, c.copies, c.w, got, c.want)
		}
	}
}
