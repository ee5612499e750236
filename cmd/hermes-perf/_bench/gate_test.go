package main

import (
	"testing"

	"repro/internal/vec"
)

func TestSameNeighbours(t *testing.T) {
	a := []vec.Neighbor{{ID: 1, Score: 0.1}, {ID: 7, Score: 0.2}, {ID: 3, Score: 0.2}, {ID: 9, Score: 0.5}}
	tieSwapped := []vec.Neighbor{{ID: 1, Score: 0.1}, {ID: 3, Score: 0.2}, {ID: 7, Score: 0.2}, {ID: 9, Score: 0.5}}
	reordered := []vec.Neighbor{{ID: 7, Score: 0.2}, {ID: 1, Score: 0.1}, {ID: 3, Score: 0.2}, {ID: 9, Score: 0.5}}
	otherDoc := []vec.Neighbor{{ID: 1, Score: 0.1}, {ID: 7, Score: 0.2}, {ID: 3, Score: 0.2}, {ID: 8, Score: 0.5}}
	if !sameNeighbours(a, a) || !sameNeighbours(a, tieSwapped) {
		t.Error("answers that differ only in the order of tied scores are not the same")
	}
	if sameNeighbours(a, reordered) || sameNeighbours(a, otherDoc) || sameNeighbours(a, a[:3]) {
		t.Error("answers with a different order, document or length are the same")
	}
}
