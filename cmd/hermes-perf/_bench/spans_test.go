package main

import "testing"

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{
			name: "nested",
			spans: []span{
				{ID: 0, Parent: -1, Start: 0, End: 100},
				{ID: 1, Parent: 0, Start: 10, End: 40},
				{ID: 2, Parent: 1, Start: 20, End: 30},
			},
			want: map[int]int64{0: 70, 1: 20, 2: 10},
		},
		{
			name: "overlapping siblings count once",
			spans: []span{
				{ID: 0, Parent: -1, Start: 0, End: 100},
				{ID: 1, Parent: 0, Start: 30, End: 70},
				{ID: 2, Parent: 0, Start: 10, End: 50},
				{ID: 3, Parent: 0, Start: 40, End: 45},
			},
			want: map[int]int64{0: 40, 1: 40, 2: 40, 3: 5},
		},
		{
			name:  "empty parent",
			spans: []span{{ID: 0, Parent: -1, Start: 5, End: 105}},
			want:  map[int]int64{0: 100},
		},
		{
			name: "child clipped to parent, unclosed child ignored",
			spans: []span{
				{ID: 0, Parent: -1, Start: 10, End: 50},
				{ID: 1, Parent: 0, Start: 0, End: 20},
				{ID: 2, Parent: 0, Start: 40, End: 90},
				{ID: 3, Parent: 0, Start: 25, End: -1},
			},
			want: map[int]int64{0: 20, 1: 20, 2: 50},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: self time of span %d = %d, want %d", c.name, id, got[id], want)
			}
		}
	}
}

func TestRecorderBeginEnd(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1, 7)
	kid := r.begin("kid", root, 7)
	r.end(kid)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Query != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v is not inside parent %+v", spans[1], spans[0])
	}
	if id, q := r.currentSpan(); id != -1 || q != -1 {
		t.Errorf("current = %d, %d before setCurrent", id, q)
	}
	r.setCurrent(kid, 7)
	if id, q := r.currentSpan(); id != kid || q != 7 {
		t.Errorf("current = %d, %d, want %d, 7", id, q, kid)
	}
}
