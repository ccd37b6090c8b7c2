package patchdb

import (
	"bytes"
	"context"
	"testing"
)

// tinyDatasetJSON builds a small dataset and keeps one record of each
// component, so the fuzz seed is a real artifact of a few kilobytes.
func tinyDatasetJSON(f *testing.F) []byte {
	f.Helper()
	ds, _, err := Build(context.Background(), BuilderConfig{
		Seed: 5, NVDSize: 6, NonSecuritySize: 12,
		WildPools: []int{200}, RoundsPerPool: []int{1}, SyntheticPerPatch: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*[]Record{&ds.NVD, &ds.Wild, &ds.NonSecurity, &ds.Synthetic} {
		*c = (*c)[:min(len(*c), 1)]
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadDataset asserts that LoadDataset never panics and that whatever
// it accepts is a fixed point of the codec: it re-encodes with WriteJSON,
// that encoding loads again, and re-encodes to the same bytes.
func FuzzLoadDataset(f *testing.F) {
	doc := tinyDatasetJSON(f)
	f.Add(doc)
	for _, cut := range []int{1, len(doc) / 3, len(doc) / 2, len(doc) - 3} {
		f.Add(doc[:cut])
	}
	f.Add([]byte(`{"nvd": null, "wild": null, "non_security": null, "synthetic": null}`))
	f.Add([]byte(`{"wild": [{"repo": "r", "security": true, "source": "wild", "text": "t"}]}`))
	f.Add(append(append([]byte{}, doc...), `{"nvd":[]}`...))
	f.Add([]byte(`{} garbage`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := LoadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := ds.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of a loaded dataset: %v", err)
		}
		again, err := LoadDataset(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-load of WriteJSON output: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("second WriteJSON: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding not stable across a load:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
