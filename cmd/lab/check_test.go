package main

import (
	"io"
	"testing"
)

func TestCheckSweep(t *testing.T) {
	if err := lab(io.Discard, "check", "-mode", "sweep", "-n", "3", "-max-crashed", "1", "-horizon", "3"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSweepWithAbortVote(t *testing.T) {
	if err := lab(io.Discard, "check", "-mode", "sweep", "-n", "3", "-votes", "101", "-max-crashed", "1", "-horizon", "2"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckBFS(t *testing.T) {
	if err := lab(io.Discard, "check", "-mode", "bfs", "-n", "2", "-k", "1", "-depth", "8", "-max-states", "4000"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckValency(t *testing.T) {
	if err := lab(io.Discard, "check", "-mode", "valency", "-n", "2", "-k", "1", "-depth", "10", "-max-states", "8000"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := [][]string{
		{"-mode", "nope"},
		{"-mode", "sweep", "-n", "3", "-votes", "10"},
		{"-mode", "sweep", "-n", "3", "-votes", "1x1"},
	}
	for _, args := range cases {
		if err := lab(io.Discard, append([]string{"check"}, args...)...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
