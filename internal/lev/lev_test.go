package lev

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDistanceTable(t *testing.T) {
	cases := []struct {
		a, b string // space-separated tokens
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "a b c", 3},
		{"a b c", "a b c", 0},
		{"a b c", "a x c", 1},
		{"a b c", "x y z", 3},
		{"a b c d", "b c d", 1},
		{"a b", "b a", 2},
		{"if ( x )", "if ( y )", 1},
		{"kitten", "sitting", 1}, // single differing token: one substitution
	}
	for _, tc := range cases {
		if got := Distance(fields(tc.a), fields(tc.b)); got != tc.want {
			t.Errorf("Distance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func fields(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Fields(s)
}

// TestDistanceStringsClassic checks the textbook character-level pairs,
// tokenizing each string into one token per byte.
func TestDistanceStringsClassic(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
	}
	for _, tc := range cases {
		if got := Distance(bytesOf(tc.a), bytesOf(tc.b)); got != tc.want {
			t.Errorf("Distance(bytes %q, bytes %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func bytesOf(s string) []string {
	out := make([]string, len(s))
	for i := range s {
		out[i] = s[i : i+1]
	}
	return out
}

func TestQuickProperties(t *testing.T) {
	symmetric := func(a, b []string) bool {
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 300}); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a []string) bool {
		return Distance(a, a) == 0
	}
	if err := quick.Check(identity, &quick.Config{MaxCount: 300}); err != nil {
		t.Error("identity:", err)
	}
	bounded := func(a, b []string) bool {
		d := Distance(a, b)
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		minDiff := len(a) - len(b)
		if minDiff < 0 {
			minDiff = -minDiff
		}
		return d >= minDiff && d <= maxLen
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 300}); err != nil {
		t.Error("bounds:", err)
	}
	triangle := func(a, b, c []string) bool {
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("triangle inequality:", err)
	}
}
