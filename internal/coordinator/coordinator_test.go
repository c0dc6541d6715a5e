package coordinator

import (
	"testing"

	"repro/internal/stream"
)

func TestAcceptanceModeCreditsAndDebits(t *testing.T) {
	c := New(1, Acceptance, 10*stream.Second, 250*stream.Millisecond)
	if c.Query() != 1 || c.Mode() != Acceptance {
		t.Error("metadata")
	}
	c.ReportAcceptedBatch(0, []float64{0.3})
	c.ReportAcceptedBatch(250, []float64{0.2})
	if got := c.Value(250); got != 0.5 {
		t.Errorf("after credits: %g", got)
	}
	// A downstream shed debits the earlier optimistic credit.
	c.ReportAcceptedBatch(500, []float64{-0.2})
	if got := c.Value(500); got < 0.299 || got > 0.301 {
		t.Errorf("after debit: %g", got)
	}
	// The value never goes negative even with excess debits.
	c.ReportAcceptedBatch(750, []float64{-5})
	if got := c.Value(750); got != 0 {
		t.Errorf("over-debited: %g", got)
	}
}

func TestRootMeasuredModeIgnoresAcceptance(t *testing.T) {
	c := New(2, RootMeasured, 10*stream.Second, 250*stream.Millisecond)
	c.ReportAcceptedBatch(0, []float64{0.9})
	if got := c.Value(0); got != 0 {
		t.Errorf("acceptance leaked into root-measured value: %g", got)
	}
	c.ReportResult(0, 0.4)
	if got := c.Value(0); got != 0.4 {
		t.Errorf("measured value: %g", got)
	}
	// MeasuredSIC is the same series regardless of mode.
	if got := c.MeasuredSIC(0); got != 0.4 {
		t.Errorf("MeasuredSIC: %g", got)
	}
}

func TestValueSlidesWithSTW(t *testing.T) {
	c := New(3, RootMeasured, stream.Second, 250*stream.Millisecond)
	c.ReportResult(0, 0.5)
	if got := c.Value(750); got != 0.5 {
		t.Errorf("within window: %g", got)
	}
	if got := c.Value(1500); got != 0 {
		t.Errorf("expired: %g", got)
	}
}

func TestModeString(t *testing.T) {
	if Acceptance.String() != "acceptance" || RootMeasured.String() != "root-measured" {
		t.Error("mode names")
	}
}
