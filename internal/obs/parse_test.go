package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// A small, strict parser for the OpenMetrics text exposition the
// exporter produces: the round-trip tests verify the exporter's format
// against it.

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the full sample name (family plus any suffix such as
	// _total, _bucket, _sum, _count, _quantile).
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one parsed metric family: its declared type and the
// samples attributed to it.
type Family struct {
	Name    string
	Type    string
	Samples []Sample
}

// suffixes a sample name may carry relative to its family name,
// per metric type.
var sampleSuffixes = []string{"", "_total", "_bucket", "_sum", "_count", "_quantile"}

// ParseExposition parses an OpenMetrics text exposition. It enforces
// the invariants the exporter relies on: every sample value parses as
// a float, label sets are well-formed, each sample belongs to a
// declared family (by longest-suffix match) or forms an untyped one,
// families are not interleaved, and the exposition terminates with
// "# EOF". The returned map is keyed by family name.
func ParseExposition(r io.Reader) (map[string]*Family, error) {
	fams := map[string]*Family{}
	sawEOF := false
	cur := "" // current family, for the no-interleave check
	closed := map[string]bool{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF {
			return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				if _, dup := fams[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				fams[name] = &Family{Name: name, Type: typ}
				if cur != "" {
					closed[cur] = true
				}
				cur = name
			}
			continue // HELP/UNIT/comments
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := attribute(fams, s.Name)
		if fam == nil {
			// Untyped sample: its own implicit family.
			fam = &Family{Name: s.Name, Type: "untyped"}
			fams[s.Name] = fam
			if cur != "" {
				closed[cur] = true
			}
			cur = s.Name
		} else {
			if fam.Name != cur {
				if closed[fam.Name] {
					return nil, fmt.Errorf("line %d: family %s interleaved (sample %s after other families)",
						lineNo, fam.Name, s.Name)
				}
				if cur != "" {
					closed[cur] = true
				}
				cur = fam.Name
			}
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("exposition does not end with # EOF")
	}
	return fams, nil
}

// attribute finds the declared family a sample belongs to by the
// longest matching family-plus-suffix spelling (e.g. "x_bucket" and
// "x_quantile" both resolve to declared families when present —
// "x_quantile" is its own gauge family in this exporter, so exact
// matches win over suffix matches).
func attribute(fams map[string]*Family, sampleName string) *Family {
	best := ""
	for _, suf := range sampleSuffixes {
		fam := strings.TrimSuffix(sampleName, suf)
		if suf != "" && fam == sampleName {
			continue
		}
		if _, ok := fams[fam]; ok && len(fam) > len(best) {
			best = fam
		}
	}
	if best == "" {
		return nil
	}
	return fams[best]
}

// parseSampleLine parses `name{labels} value` or `name value`.
func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.Name = line[:i]
		j := strings.IndexByte(line[i:], '}')
		if j < 0 {
			return s, fmt.Errorf("unterminated label set: %q", line)
		}
		labels, err := parseLabels(line[i+1 : i+j])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(line[i+j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return s, fmt.Errorf("malformed sample: %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty sample name: %q", line)
	}
	// Value is the first field of the remainder (a timestamp may follow).
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("missing value: %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `k1="v1",k2="v2"` (escaped quotes/backslashes in
// values per the exposition format).
func parseLabels(in string) (map[string]string, error) {
	out := map[string]string{}
	rest := in
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=': %q", in)
		}
		key := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", in)
		}
		rest = rest[1:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", in)
		}
		out[key] = val.String()
		rest = rest[i+1:]
		rest = strings.TrimPrefix(rest, ",")
	}
	return out, nil
}

// FamilyNames returns the parsed family names sorted, a convenience
// for assertions.
func FamilyNames(fams map[string]*Family) []string {
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
