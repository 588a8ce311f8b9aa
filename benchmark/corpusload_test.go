package main

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
)

func TestLongestFirstRanksSlowestTwinsFirst(t *testing.T) {
	var entries []corpus.Entry
	for _, n := range []string{"apex7", "frg1", "industry1", "industry2", "industry3", "unranked-b", "unranked-a", "x1", "x3"} {
		entries = append(entries, corpus.Entry{Name: n})
	}
	longestFirst(entries)
	var got []string
	for _, e := range entries {
		got = append(got, e.Name)
	}
	want := []string{"industry3", "x3", "industry1", "industry2", "apex7", "x1", "frg1", "unranked-b", "unranked-a"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}
