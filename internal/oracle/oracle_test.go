package oracle

import "testing"

func TestVerifyTruth(t *testing.T) {
	o := New(map[string]bool{"sec": true, "non": false})
	if !o.Verify("sec") {
		t.Error("security patch rejected")
	}
	if o.Verify("non") {
		t.Error("non-security patch accepted")
	}
	if o.Verify("unknown") {
		t.Error("unknown hash accepted")
	}
	if o.Inspected() != 3 {
		t.Errorf("inspected = %d", o.Inspected())
	}
}

// TestSetInspected pins the restore a resumed build relies on: the
// inspection counter takes the journaled value and keeps counting from it.
func TestSetInspected(t *testing.T) {
	o := New(map[string]bool{"a": true})
	o.Verify("a")
	o.SetInspected(5)
	o.Verify("a")
	if o.Inspected() != 6 {
		t.Errorf("inspected after restore = %d, want 6", o.Inspected())
	}
	o.SetInspected(0)
	if o.Inspected() != 0 {
		t.Errorf("inspected after SetInspected(0) = %d", o.Inspected())
	}
}

func TestErrorModelMajorityVote(t *testing.T) {
	// With a small per-annotator error rate and 3-way majority vote, the
	// effective error rate must be well below the individual one
	// (3e^2 - 2e^3 for independent annotators; 0.1 -> ~0.028).
	labels := map[string]bool{}
	for i := 0; i < 2000; i++ {
		labels[key(i)] = i%2 == 0
	}
	o := New(labels, WithErrorRate(0.1), WithSeed(42))
	wrong := 0
	for i := 0; i < 2000; i++ {
		if o.Verify(key(i)) != (i%2 == 0) {
			wrong++
		}
	}
	rate := float64(wrong) / 2000
	if rate > 0.06 {
		t.Errorf("majority-vote error rate = %.3f, want < 0.06", rate)
	}
	if rate == 0 {
		t.Error("error model inactive")
	}
}

func TestAnnotatorCount(t *testing.T) {
	labels := map[string]bool{}
	for i := 0; i < 1000; i++ {
		labels[key(i)] = true
	}
	// At a per-annotator rate of 0.2 a majority of three errs with
	// probability 3e^2 - 2e^3 = 0.104; one annotator would err 0.2 of the
	// time and a majority of five 0.058.
	o := New(labels, WithErrorRate(0.2), WithSeed(1))
	wrong := 0
	for i := 0; i < 1000; i++ {
		if !o.Verify(key(i)) {
			wrong++
		}
	}
	if wrong < 80 || wrong > 130 {
		t.Errorf("%d of 1000 majority votes wrong, want 104 ± 25 for three annotators", wrong)
	}
}

func key(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i%10)) + fmtInt(i) }

func fmtInt(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	var out []byte
	for i > 0 {
		out = append([]byte{digits[i%10]}, out...)
		i /= 10
	}
	return string(out)
}
