package obs

import "strings"

// An agreement batch's own records (GO, votes, stages, rounds, links) are
// keyed by the batch, and each member transaction's records name the
// batch in their Detail. These three functions are that convention, so a
// per-transaction view can follow a member to the batch that decided it.

// BatchKey is the Txn key of a batch's own spans.
func BatchKey(batch string) string { return "batch:" + batch }

// BatchDetail is the Detail token naming a member's batch. It goes last
// in a Detail: the batch id runs to the end of the string.
func BatchDetail(batch string) string { return "batch=" + batch }

// BatchKeyOf returns the BatchKey of the batch a member's Detail names,
// or "" if it names none.
func BatchKeyOf(detail string) string {
	if rest, ok := strings.CutPrefix(detail, "batch="); ok {
		return BatchKey(rest)
	}
	if _, rest, ok := strings.Cut(detail, " batch="); ok {
		return BatchKey(rest)
	}
	return ""
}
