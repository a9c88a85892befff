// Package cparse is the front end of the source-to-source tool (§VII):
// it parses C fragments in which a non-rectangular loop nest is
// annotated with an OpenMP pragma carrying a collapse clause,
//
//	#pragma omp parallel for collapse(2) schedule(static)
//	for (i = 0; i < N - 1; i++)
//	  for (j = i + 1; j < N; j++) {
//	    ... body ...
//	  }
//
// and produces the nest model (the collapse-count outermost loops, with
// affine bounds over the free parameters) plus the raw body text. The
// supported loop-header grammar matches the Fig. 5 model:
//
//	for ( ident = affine ; ident < affine ; ident++ )
//
// with <= accepted as bound comparator (normalised to < by adding 1) and
// `ident += 1`/`++ident` accepted as increment.
package cparse

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/nest"
	"repro/internal/poly"
)

// Program is a parsed annotated loop nest.
type Program struct {
	// CollapseCount is the collapse(...) clause argument.
	CollapseCount int
	// Schedule is the schedule clause body ("static", "dynamic", ...);
	// empty when absent.
	Schedule string
	// Nest contains the CollapseCount outermost loops; free identifiers
	// of the bounds are its parameters (sorted).
	Nest *nest.Nest
	// Body is the raw C text nested inside the collapsed loops (which may
	// itself contain further loops and statements).
	Body string
}

var (
	pragmaRe   = regexp.MustCompile(`#pragma\s+omp\s+[^\n]*`)
	collapseRe = regexp.MustCompile(`collapse\s*\(\s*(\d+)\s*\)`)
	scheduleRe = regexp.MustCompile(`schedule\s*\(\s*([^)]*?)\s*\)`)
)

// SyntaxError is a parse failure located in the source text (1-based
// line and column), so tools can point at the offending construct
// instead of reporting a byte offset.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// lineCol converts a byte offset into 1-based line and column.
func lineCol(src string, pos int) (line, col int) {
	if pos > len(src) {
		pos = len(src)
	}
	line = 1 + strings.Count(src[:pos], "\n")
	nl := strings.LastIndexByte(src[:pos], '\n')
	return line, pos - nl
}

// errAt builds a *SyntaxError at the given byte offset.
func (s *scanner) errAt(pos int, format string, args ...any) error {
	line, col := lineCol(s.src, pos)
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Parse parses the first OpenMP-annotated loop nest in src.
func Parse(src string) (*Program, error) {
	loc := pragmaRe.FindStringIndex(src)
	if loc == nil {
		return nil, fmt.Errorf("cparse: no '#pragma omp' directive found")
	}
	pragma := src[loc[0]:loc[1]]
	m := collapseRe.FindStringSubmatch(pragma)
	if m == nil {
		return nil, fmt.Errorf("cparse: pragma has no collapse clause: %s", strings.TrimSpace(pragma))
	}
	c, err := strconv.Atoi(m[1])
	if err != nil || c < 1 {
		return nil, fmt.Errorf("cparse: bad collapse count %q", m[1])
	}
	prog := &Program{CollapseCount: c}
	if sm := scheduleRe.FindStringSubmatch(pragma); sm != nil {
		prog.Schedule = strings.TrimSpace(sm[1])
	}

	s := &scanner{src: src, pos: loc[1]}
	var loops []nest.Loop
	openBraces := 0
	for k := 0; k < c; k++ {
		s.skipSpace()
		for s.peekByte() == '{' {
			s.pos++
			openBraces++
			s.skipSpace()
		}
		loop, err := s.parseForHeader()
		if err != nil {
			return nil, fmt.Errorf("cparse: loop %d: %w", k+1, err)
		}
		loops = append(loops, loop)
	}

	body, err := s.captureBody()
	if err != nil {
		return nil, err
	}
	// Consume the closers of braces opened between headers.
	for b := 0; b < openBraces; b++ {
		s.skipSpace()
		if s.peekByte() != '}' {
			return nil, fmt.Errorf("cparse: unbalanced braces around the loop nest")
		}
		s.pos++
	}
	prog.Body = strings.TrimSpace(body)

	n, err := nest.New(nest.FreeParams(loops), loops...)
	if err != nil {
		return nil, fmt.Errorf("cparse: %w", err)
	}
	prog.Nest = n
	return prog, nil
}

type scanner struct {
	src string
	pos int
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.src) {
		ch := s.src[s.pos]
		if ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' {
			s.pos++
			continue
		}
		// Skip // and /* */ comments.
		if ch == '/' && s.pos+1 < len(s.src) {
			if s.src[s.pos+1] == '/' {
				for s.pos < len(s.src) && s.src[s.pos] != '\n' {
					s.pos++
				}
				continue
			}
			if s.src[s.pos+1] == '*' {
				end := strings.Index(s.src[s.pos+2:], "*/")
				if end < 0 {
					s.pos = len(s.src)
					return
				}
				s.pos += 2 + end + 2
				continue
			}
		}
		return
	}
}

func (s *scanner) peekByte() byte {
	if s.pos >= len(s.src) {
		return 0
	}
	return s.src[s.pos]
}

func (s *scanner) expect(word string) error {
	s.skipSpace()
	if !strings.HasPrefix(s.src[s.pos:], word) {
		return s.errAt(s.pos, "expected %q (found %q)", word, snippet(s.src, s.pos))
	}
	s.pos += len(word)
	return nil
}

func snippet(src string, pos int) string {
	end := pos + 20
	if end > len(src) {
		end = len(src)
	}
	return src[pos:end]
}

func (s *scanner) ident() (string, error) {
	s.skipSpace()
	start := s.pos
	for s.pos < len(s.src) && isIdentByte(s.src[s.pos], s.pos == start) {
		s.pos++
	}
	if s.pos == start {
		return "", s.errAt(start, "expected identifier (found %q)", snippet(s.src, start))
	}
	return s.src[start:s.pos], nil
}

func isIdentByte(ch byte, first bool) bool {
	if ch == '_' || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') {
		return true
	}
	return !first && ch >= '0' && ch <= '9'
}

// until scans forward to the next top-level occurrence of stop (one of
// ";<)") at paren depth 0 and returns the intervening text.
func (s *scanner) until(stops string) (string, byte, error) {
	start := s.pos
	depth := 0
	for s.pos < len(s.src) {
		ch := s.src[s.pos]
		switch {
		case ch == '(':
			depth++
		case ch == ')' && depth > 0:
			depth--
		case depth == 0 && strings.IndexByte(stops, ch) >= 0:
			return s.src[start:s.pos], ch, nil
		}
		s.pos++
	}
	return "", 0, s.errAt(start, "unterminated expression")
}

// parseForHeader parses: for ( i = lo ; i < hi ; i++ ).
func (s *scanner) parseForHeader() (nest.Loop, error) {
	var loop nest.Loop
	if err := s.expect("for"); err != nil {
		return loop, err
	}
	if err := s.expect("("); err != nil {
		return loop, err
	}
	idx, err := s.ident()
	if err != nil {
		return loop, err
	}
	if err := s.expect("="); err != nil {
		return loop, err
	}
	loSrc, _, err := s.until(";")
	if err != nil {
		return loop, err
	}
	s.pos++ // ';'
	idx2, err := s.ident()
	if err != nil {
		return loop, err
	}
	if idx2 != idx {
		return loop, fmt.Errorf("condition tests %q, loop variable is %q", idx2, idx)
	}
	s.skipSpace()
	if s.peekByte() != '<' {
		return loop, s.errAt(s.pos, "only '<' and '<=' conditions are supported (found %q)", snippet(s.src, s.pos))
	}
	s.pos++
	le := false
	if s.peekByte() == '=' {
		le = true
		s.pos++
	}
	hiSrc, _, err := s.until(";")
	if err != nil {
		return loop, err
	}
	s.pos++ // ';'
	if err := s.parseIncrement(idx); err != nil {
		return loop, err
	}
	if err := s.expect(")"); err != nil {
		return loop, err
	}
	lo, err := poly.Parse(loSrc)
	if err != nil {
		return loop, fmt.Errorf("lower bound %q: %w", strings.TrimSpace(loSrc), err)
	}
	hi, err := poly.Parse(hiSrc)
	if err != nil {
		return loop, fmt.Errorf("upper bound %q: %w", strings.TrimSpace(hiSrc), err)
	}
	if le {
		hi = hi.Add(poly.One())
	}
	return nest.Loop{Index: idx, Lower: lo, Upper: hi}, nil
}

// parseIncrement accepts i++, ++i, i += 1 and i = i + 1.
func (s *scanner) parseIncrement(idx string) error {
	s.skipSpace()
	rest := s.src[s.pos:]
	forms := []string{
		idx + "++", "++" + idx, idx + " ++",
		idx + "+=1", idx + " += 1", idx + " +=1", idx + "+= 1",
		idx + "=" + idx + "+1", idx + " = " + idx + " + 1",
	}
	for _, f := range forms {
		if strings.HasPrefix(rest, f) {
			s.pos += len(f)
			return nil
		}
	}
	return s.errAt(s.pos, "unsupported increment (found %q); unit stride required", snippet(s.src, s.pos))
}

// captureBody grabs the loop body: a braced block (returning its inner
// text) or a single statement terminated by ';'.
func (s *scanner) captureBody() (string, error) {
	s.skipSpace()
	if s.peekByte() == '{' {
		depth := 0
		start := s.pos + 1
		for s.pos < len(s.src) {
			switch s.src[s.pos] {
			case '{':
				depth++
			case '}':
				depth--
				if depth == 0 {
					body := s.src[start:s.pos]
					s.pos++
					return body, nil
				}
			}
			s.pos++
		}
		return "", fmt.Errorf("cparse: unbalanced '{' in loop body")
	}
	// Single statement — possibly an entire (non-collapsed) inner loop.
	if strings.HasPrefix(s.src[s.pos:], "for") {
		return s.captureInnerFor()
	}
	stmt, _, err := s.until(";")
	if err != nil {
		return "", fmt.Errorf("cparse: %w", err)
	}
	s.pos++
	return stmt + ";", nil
}

// captureInnerFor captures a complete inner for statement (header plus
// its own body) as raw text.
func (s *scanner) captureInnerFor() (string, error) {
	start := s.pos
	if err := s.expect("for"); err != nil {
		return "", err
	}
	s.skipSpace()
	if s.peekByte() != '(' {
		return "", s.errAt(s.pos, "malformed inner for statement")
	}
	depth := 0
	for s.pos < len(s.src) {
		ch := s.src[s.pos]
		if ch == '(' {
			depth++
		} else if ch == ')' {
			depth--
			s.pos++
			if depth == 0 {
				break
			}
			continue
		}
		s.pos++
	}
	inner, err := s.captureBody()
	if err != nil {
		return "", err
	}
	_ = inner
	return s.src[start:s.pos], nil
}
