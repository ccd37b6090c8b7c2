// Package lev provides Levenshtein edit distance over strings and token
// sequences, used by PatchDB's hunk-similarity features (features 49-56).
package lev

// Distance returns the Levenshtein distance between two string slices
// (token-level edit distance). It runs in O(len(a)*len(b)) time and
// O(min(len(a),len(b))) space.
func Distance(a, b []string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is now the shorter side.
	if len(b) == 0 {
		return len(a)
	}
	// The two rows live on the stack when the shorter side is a hunk's
	// worth of tokens.
	var stack [2 * 64]int
	rows := stack[:]
	if 2*(len(b)+1) > len(rows) {
		rows = make([]int, 2*(len(b)+1))
	}
	prev, cur := rows[:len(b)+1], rows[len(b)+1:2*(len(b)+1)]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
