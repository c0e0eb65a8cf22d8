package obs

import "testing"

// TestBatchKeyOf: a Detail names its batch last, and the batch id runs to
// the end of the string.
func TestBatchKeyOf(t *testing.T) {
	for detail, want := range map[string]string{
		"decision=COMMIT batch=b 1":  "batch:b 1", // the id runs to the end
		"batch=solo":                 "batch:solo",
		"coordinator=0 batch=s0-b-3": "batch:s0-b-3",
		"decision=COMMIT":            "",
		"minibatch=3":                "",
		"":                           "",
	} {
		if got := BatchKeyOf(detail); got != want {
			t.Errorf("BatchKeyOf(%q) = %q, want %q", detail, got, want)
		}
	}
}
