package types

import (
	"testing"
	"testing/quick"
)

func TestMajorityAndMaxFaulty(t *testing.T) {
	cases := []struct {
		n, majority, faulty int
	}{
		{1, 1, 0}, {2, 2, 0}, {3, 2, 1}, {4, 3, 1},
		{5, 3, 2}, {6, 4, 2}, {7, 4, 3}, {8, 5, 3},
	}
	for _, c := range cases {
		if got := Majority(c.n); got != c.majority {
			t.Errorf("Majority(%d) = %d, want %d", c.n, got, c.majority)
		}
		if got := MaxFaulty(c.n); got != c.faulty {
			t.Errorf("MaxFaulty(%d) = %d, want %d", c.n, got, c.faulty)
		}
	}
}

func TestMajorityCoversFaulty(t *testing.T) {
	// Invariant: a majority of correct processes must exist even with
	// MaxFaulty crashes: n - MaxFaulty(n) >= Majority(n).
	f := func(raw uint8) bool {
		n := int(raw%64) + 1
		return n-MaxFaulty(n) >= Majority(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMsgIDLessIsStrictTotalOrder(t *testing.T) {
	f := func(s1, s2 int32, q1, q2 uint64) bool {
		a := MsgID{Sender: ProcessID(s1), Seq: q1}
		b := MsgID{Sender: ProcessID(s2), Seq: q2}
		switch {
		case a == b:
			return a.Compare(b) >= 0 && b.Compare(a) >= 0
		default:
			return (a.Compare(b) < 0) != (b.Compare(a) < 0) // exactly one direction
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMsgIDLessTransitivity(t *testing.T) {
	f := func(s1, s2, s3 int8, q1, q2, q3 uint8) bool {
		a := MsgID{Sender: ProcessID(s1), Seq: uint64(q1)}
		b := MsgID{Sender: ProcessID(s2), Seq: uint64(q2)}
		c := MsgID{Sender: ProcessID(s3), Seq: uint64(q3)}
		if a.Compare(b) < 0 && b.Compare(c) < 0 {
			return a.Compare(c) < 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	if got := ProcessID(0).String(); got != "p1" {
		t.Errorf("ProcessID(0) = %q", got)
	}
	if got := Nobody.String(); got != "p?" {
		t.Errorf("Nobody = %q", got)
	}
	if got := (MsgID{Sender: 2, Seq: 7}).String(); got != "p3#7" {
		t.Errorf("MsgID = %q", got)
	}
	if Modular.String() != "modular" || Monolithic.String() != "monolithic" {
		t.Error("stack names wrong")
	}
	if got := Stack(99).String(); got != "stack(99)" {
		t.Errorf("unknown stack = %q", got)
	}
}
