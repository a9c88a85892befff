package dist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

func writeJournal(t *testing.T, records ...journalRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.journal")
	var b []byte
	for _, rec := range records {
		b = append(b, encodeRecord(rec)...)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func hdr(fp string, total int64) journalRecord {
	return journalRecord{Type: "hdr", Version: journalVersion, Fingerprint: fp, Total: total}
}

func done(lo, hi, iters int64, sum uint64) journalRecord {
	return journalRecord{Type: "done", Lo: lo, Hi: hi, Iters: iters, Sum: sum}
}

func TestJournalRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.journal")
	j, err := CreateJournal(path, "fp-test", 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Interval{Lo: 1, Hi: 40}, 40, 7); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Interval{Lo: 61, Hi: 100}, 40, 11); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint != "fp-test" || st.Total != 100 {
		t.Fatalf("header = %q/%d, want fp-test/100", st.Fingerprint, st.Total)
	}
	if st.Done.Covered() != 80 || st.Iters != 80 || st.Sum != 18 {
		t.Fatalf("replayed state covered=%d iters=%d sum=%d, want 80/80/18",
			st.Done.Covered(), st.Iters, st.Sum)
	}
	if st.TornTail || st.Duplicates != 0 {
		t.Fatalf("clean journal replayed with TornTail=%v Duplicates=%d", st.TornTail, st.Duplicates)
	}
	if got := st.Done.Complement(1, 100); len(got) != 1 || got[0] != (Interval{Lo: 41, Hi: 60}) {
		t.Fatalf("uncovered work = %v, want [41,60]", got)
	}
}

// TestJournalEmpty: an empty file has no sound state to resume from and
// must refuse with the typed corruption error.
func TestJournalEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.journal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReplayJournal(path)
	if !errors.Is(err, faults.ErrJournalCorrupt) {
		t.Fatalf("replay of empty journal = %v, want ErrJournalCorrupt", err)
	}
}

// TestJournalTornTail: a truncated final record is the expected residue
// of a crash mid-append — replay keeps the clean prefix, Reopen
// truncates the tail, and appends continue from there.
func TestJournalTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(valid []byte) []byte
	}{
		{"no-newline", func(v []byte) []byte {
			return append(v, []byte(`0badc0de {"t":"done","lo":9`)...)
		}},
		{"bad-checksum-final", func(v []byte) []byte {
			line := encodeRecord(done(90, 95, 6, 3))
			line[0] ^= 'f' // corrupt the crc prefix
			return append(v, line...)
		}},
		{"truncated-json", func(v []byte) []byte {
			line := encodeRecord(done(90, 95, 6, 3))
			return append(v, line[:len(line)-4]...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeJournal(t, hdr("fp", 100), done(1, 50, 50, 5))
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := ReplayJournal(path)
			if err != nil {
				t.Fatalf("torn tail must be tolerated, got %v", err)
			}
			if !st.TornTail {
				t.Fatal("TornTail not reported")
			}
			if st.Done.Covered() != 50 || st.Sum != 5 {
				t.Fatalf("clean prefix lost: covered=%d sum=%d", st.Done.Covered(), st.Sum)
			}
			j, err := st.Reopen(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(Interval{Lo: 51, Hi: 100}, 50, 7); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := ReplayJournal(path)
			if err != nil {
				t.Fatalf("replay after tail truncation and append: %v", err)
			}
			if st2.TornTail || st2.Done.Covered() != 100 || st2.Sum != 12 {
				t.Fatalf("post-recovery state: torn=%v covered=%d sum=%d, want false/100/12",
					st2.TornTail, st2.Done.Covered(), st2.Sum)
			}
		})
	}
}

// TestJournalMidCorruption: a bad record BEFORE the final line is body
// damage, not a crash residue, and must refuse.
func TestJournalMidCorruption(t *testing.T) {
	path := writeJournal(t, hdr("fp", 100), done(1, 50, 50, 5), done(51, 100, 50, 7))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the SECOND line's JSON (line 2 of 3).
	lines := strings.SplitAfter(string(data), "\n")
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x40
	if err := os.WriteFile(path, []byte(lines[0]+string(mid)+lines[2]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(path); !errors.Is(err, faults.ErrJournalCorrupt) {
		t.Fatalf("mid-file corruption = %v, want ErrJournalCorrupt", err)
	}
}

func TestJournalMissingHeader(t *testing.T) {
	path := writeJournal(t, done(1, 10, 10, 1))
	if _, err := ReplayJournal(path); !errors.Is(err, faults.ErrJournalCorrupt) {
		t.Fatalf("headerless journal = %v, want ErrJournalCorrupt", err)
	}
}

// TestJournalDuplicateRecords: a journal can hold the same interval
// twice (two runs appending to one file). Replay must keep the first
// record's sums and count the duplicate, not double-count.
func TestJournalDuplicateRecords(t *testing.T) {
	path := writeJournal(t, hdr("fp", 100), done(1, 50, 50, 5), done(1, 50, 50, 999), done(51, 100, 50, 7))
	st, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}
	if st.Done.Covered() != 100 || st.Sum != 12 || st.Iters != 100 {
		t.Fatalf("deduped state covered=%d sum=%d iters=%d, want 100/12/100",
			st.Done.Covered(), st.Sum, st.Iters)
	}
}

// TestJournalPartialOverlapRefused: a half-covered record cannot come
// from one coordinator's disjoint plans — it means the file mixes
// incompatible runs, and its sums cannot be attributed.
func TestJournalPartialOverlapRefused(t *testing.T) {
	path := writeJournal(t, hdr("fp", 100), done(1, 50, 50, 5), done(40, 60, 21, 3))
	if _, err := ReplayJournal(path); !errors.Is(err, faults.ErrJournalCorrupt) {
		t.Fatalf("partial-overlap record = %v, want ErrJournalCorrupt", err)
	}
}

func TestJournalOutOfRangeInterval(t *testing.T) {
	path := writeJournal(t, hdr("fp", 100), done(90, 120, 31, 3))
	if _, err := ReplayJournal(path); !errors.Is(err, faults.ErrJournalCorrupt) {
		t.Fatalf("out-of-range record = %v, want ErrJournalCorrupt", err)
	}
}
