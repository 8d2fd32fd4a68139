package costmodel

import (
	"testing"
	"testing/quick"
)

func TestMeterChargeAndTotals(t *testing.T) {
	m := NewMeter()
	m.Charge(Client, 100)
	m.Charge(GCStack, 30)
	m.Charge(GCCopy, 70)
	if m.Get(Client) != 100 {
		t.Errorf("Client = %d", m.Get(Client))
	}
	if m.GC() != 100 {
		t.Errorf("GC = %d", m.GC())
	}
	if m.Total() != 200 {
		t.Errorf("Total = %d", m.Total())
	}
}

func TestMeterChargeN(t *testing.T) {
	m := NewMeter()
	m.ChargeN(GCCopy, CopyWord, 25)
	if m.Get(GCCopy) != 25*CopyWord {
		t.Errorf("ChargeN = %d", m.Get(GCCopy))
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter()
	m.Charge(Client, 5)
	m.Reset()
	if m.Total() != 0 {
		t.Error("reset did not zero meter")
	}
}

func TestSnapshotAndSub(t *testing.T) {
	m := NewMeter()
	m.Charge(Client, 10)
	before := m.Snapshot()
	m.Charge(Client, 7)
	m.Charge(GCStack, 3)
	delta := m.Snapshot().Sub(before)
	if delta.Client != 7 || delta.GCStack != 3 || delta.GCCopy != 0 {
		t.Errorf("delta = %+v", delta)
	}
	if delta.Total() != 10 || delta.GC() != 3 {
		t.Errorf("delta totals: %d %d", delta.Total(), delta.GC())
	}
}

func TestSeconds(t *testing.T) {
	c := Cycles(ClockHz)
	if s := c.Seconds(); s != 1.0 {
		t.Errorf("1 clock-second = %g", s)
	}
}

func TestComponentStrings(t *testing.T) {
	if Client.String() != "client" || GCStack.String() != "gc-stack" || GCCopy.String() != "gc-copy" {
		t.Error("component names wrong")
	}
	if Component(99).String() != "unknown" {
		t.Error("unknown component name wrong")
	}
}

func TestMeterAdditivityProperty(t *testing.T) {
	// Charges accumulate additively regardless of interleaving.
	f := func(charges []uint16) bool {
		m := NewMeter()
		var want [3]Cycles
		for i, c := range charges {
			comp := Component(i % 3)
			m.Charge(comp, Cycles(c))
			want[comp] += Cycles(c)
		}
		return m.Get(Client) == want[0] && m.Get(GCStack) == want[1] &&
			m.Get(GCCopy) == want[2] &&
			m.Total() == want[0]+want[1]+want[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNilWorkerTallyBracketsNothing(t *testing.T) {
	// W = 1 is a nil tally: collectors bracket every quantum without a
	// nil check, so both brackets must be no-ops that move no cycles.
	m := NewMeter()
	var tally *WorkerTally
	for i := 0; i < 3; i++ {
		tally.BeginQuantum()
		m.Charge(GCCopy, 10)
		tally.EndQuantum()
	}
	tally.EndQuantum() // unpaired: a non-nil tally would panic
	if m.Get(GCCopy) != 30 || m.GC() != 30 {
		t.Errorf("GCCopy = %d, GC = %d, want 30 and 30", m.Get(GCCopy), m.GC())
	}
}
