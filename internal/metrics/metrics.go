// Package metrics provides the evaluation measures of the paper's Section
// 7.1: precision ("the fraction of the user pairs in the returned result
// that are correctly linked"), recall ("the fraction of the actual linked
// user pairs that are contained in the returned result"), F1 and
// wall-clock timing.
package metrics

import (
	"fmt"
	"time"
)

// Confusion is a binary confusion count.
type Confusion struct {
	TP, FP, FN, TN int
}

// Precision returns TP/(TP+FP), or 0 when nothing was returned.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when there are no actual positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String formats the confusion as a compact summary.
func (c Confusion) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		c.Precision(), c.Recall(), c.F1(), c.TP, c.FP, c.FN)
}

// EvaluateLinkage scores returned pairs against truth. returned[i] is the
// decision for candidate i, truth[i] its ground-truth label, and
// missedPositives counts true pairs that never became candidates (blocking
// misses) — they are false negatives the classifier never saw, and the
// paper's recall definition charges them.
func EvaluateLinkage(returned, truth []bool, missedPositives int) (Confusion, error) {
	if len(returned) != len(truth) {
		return Confusion{}, fmt.Errorf("metrics: %d decisions but %d labels", len(returned), len(truth))
	}
	if missedPositives < 0 {
		return Confusion{}, fmt.Errorf("metrics: negative missedPositives %d", missedPositives)
	}
	var c Confusion
	for i := range returned {
		switch {
		case returned[i] && truth[i]:
			c.TP++
		case returned[i] && !truth[i]:
			c.FP++
		case !returned[i] && truth[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	c.FN += missedPositives
	return c, nil
}

// Timer measures wall-clock durations for the efficiency experiments.
type Timer struct {
	start time.Time
}

// NewTimer starts a timer.
func NewTimer() *Timer { return &Timer{start: time.Now()} }

// Elapsed returns the duration since start.
func (t *Timer) Elapsed() time.Duration { return time.Since(t.start) }

// Seconds returns the elapsed seconds.
func (t *Timer) Seconds() float64 { return t.Elapsed().Seconds() }
