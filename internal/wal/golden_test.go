package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestBatchFileGolden pins the exact bytes of one batch file per logging
// scheme: the file header plus three framed records of the same bank
// deposits. A change to the record frame or to a payload encoder moves a
// digest, and with it every log a previous build wrote.
func TestBatchFileGolden(t *testing.T) {
	recs := commitRecords(t, 1, 1, 2)
	for _, tc := range []struct {
		kind   Kind
		size   int
		digest string
	}{
		{Command, 174, "e71e77ef75ff05aaae6b140107c0fdf7df7592cd00281b7d6c3c959dcd5635d2"},
		{Physical, 234, "6a5c04994e4de6fbea355f5f14789ab65cdc40fbf3f099a67613b3c695d403cb"},
		{Logical, 162, "669502e877f4132519fbd81ff4391e3270320e9fd54ed051592c22a3af4fb114"},
	} {
		buf := appendFileHeader(nil, tc.kind, 1, 2)
		for _, c := range recs {
			buf = encodeRecord(buf, tc.kind, c)
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); len(buf) != tc.size || got != tc.digest {
			t.Errorf("%v batch file: %d bytes, sha256 %s; want %d bytes, sha256 %s", tc.kind, len(buf), got, tc.size, tc.digest)
		}
	}
}
