package ivf

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/vec"
)

// TestTrainAndAddMatchesTrainThenAdd: filling from the training assignment
// must write the bytes Train followed by one Add per row writes, with and
// without a training sample and residual encoding, and under explicit IDs.
func TestTrainAndAddMatchesTrainThenAdd(t *testing.T) {
	data := gaussianData(900, 12, 7)
	ids := make([]int64, data.Len())
	for i := range ids {
		ids[i] = int64(3*i + 11)
	}
	saved := func(ix *Index) []byte {
		var b bytes.Buffer
		if err := ix.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"flat", func() Config { return Config{Dim: 12, Seed: 1} }},
		{"sq8", func() Config { return Config{Dim: 12, NList: 40, Seed: 2, Quantizer: quant.NewSQ(12, 8)} }},
		{"sq4_residual", func() Config {
			return Config{Dim: 12, NList: 25, Seed: 3, Quantizer: quant.NewSQ(12, 4), ByResidual: true}
		}},
		{"train_sample", func() Config { return Config{Dim: 12, Seed: 4, TrainSample: 300, Quantizer: quant.NewSQ(12, 8)} }},
		{"train_sample_residual", func() Config { return Config{Dim: 12, Seed: 5, TrainSample: 300, ByResidual: true} }},
		{"nlist_above_rows", func() Config { return Config{Dim: 12, NList: 5000, Seed: 6} }},
	} {
		for _, rowIDs := range [][]int64{nil, ids} {
			want, err := New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Train(data); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < data.Len(); i++ {
				id := int64(i)
				if rowIDs != nil {
					id = rowIDs[i]
				}
				if err := want.Add(id, data.Row(i)); err != nil {
					t.Fatal(err)
				}
			}
			got, err := New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := got.TrainAndAdd(data, rowIDs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved(got), saved(want)) {
				t.Fatalf("%s (ids %v): TrainAndAdd bytes differ from Train then Add", tc.name, rowIDs != nil)
			}
		}
	}
}

func TestTrainAndAddErrors(t *testing.T) {
	ix, err := New(Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := vec.NewMatrix(10, 4)
	if err := ix.TrainAndAdd(data, make([]int64, 9)); err == nil || !strings.Contains(err.Error(), "9 ids for 10 rows") {
		t.Fatalf("mismatched ids: error %v", err)
	}
	if ix.Trained() {
		t.Fatal("a rejected TrainAndAdd trained the index")
	}
	if err := ix.TrainAndAdd(vec.NewMatrix(3, 5), nil); err == nil {
		t.Fatal("wrong dim: no error")
	}
	if err := ix.TrainAndAdd(nil, nil); err == nil {
		t.Fatal("nil data: no error")
	}
}
