package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// LintExposition statically checks a Prometheus text exposition
// (version 0.0.4) for the structural mistakes a hand-rolled registry can
// make: samples without a declared family, duplicate or conflicting
// HELP/TYPE headers, invalid metric names or types, malformed label
// lists (names, quoting, escapes, UTF-8), duplicate series, and counter
// samples with negative values. It returns one message per
// problem; an empty slice means the exposition is clean.
//
// The checks mirror what promtool's `check metrics` would reject, so CI
// can gate the /metrics surface without the Prometheus toolchain.
func LintExposition(r io.Reader) []string {
	var problems []string
	families := map[string]string{} // name -> type
	helped := map[string]bool{}
	seenSeries := map[string]bool{}
	lineNo := 0

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if !validMetricName(name) {
				problems = append(problems, fmt.Sprintf("line %d: invalid metric name %q in HELP", lineNo, name))
			}
			if strings.TrimSpace(help) == "" {
				problems = append(problems, fmt.Sprintf("line %d: metric %q has empty help text", lineNo, name))
			}
			if helped[name] {
				problems = append(problems, fmt.Sprintf("line %d: duplicate HELP for metric %q", lineNo, name))
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, _ := strings.Cut(rest, " ")
			typ = strings.TrimSpace(typ)
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				problems = append(problems, fmt.Sprintf("line %d: metric %q has invalid type %q", lineNo, name, typ))
			}
			if prev, dup := families[name]; dup {
				if prev != typ {
					problems = append(problems, fmt.Sprintf("line %d: metric %q redeclared as %q (was %q)", lineNo, name, typ, prev))
				} else {
					problems = append(problems, fmt.Sprintf("line %d: duplicate TYPE for metric %q", lineNo, name))
				}
				continue
			}
			families[name] = typ
		case strings.HasPrefix(line, "#"):
			// Other comments are legal and ignored.
		default:
			name, labels, value, err := parseSample(line)
			if err != nil {
				problems = append(problems, fmt.Sprintf("line %d: %v", lineNo, err))
				continue
			}
			if _, err := parseLabelPairs(labels); err != nil {
				problems = append(problems, fmt.Sprintf("line %d: %v", lineNo, err))
			}
			fam, typ := sampleFamily(name, families)
			if fam == "" {
				problems = append(problems, fmt.Sprintf("line %d: sample %q has no TYPE declaration", lineNo, name))
			} else if !helped[fam] {
				problems = append(problems, fmt.Sprintf("line %d: sample %q belongs to family %q which has no HELP", lineNo, name, fam))
			}
			if typ == "counter" && strings.HasPrefix(value, "-") {
				problems = append(problems, fmt.Sprintf("line %d: counter %q has negative value %s", lineNo, name, value))
			}
			series := name + "{" + labels + "}"
			if seenSeries[series] {
				problems = append(problems, fmt.Sprintf("line %d: duplicate series %s", lineNo, series))
			}
			seenSeries[series] = true
		}
	}
	if err := sc.Err(); err != nil {
		problems = append(problems, "read error: "+err.Error())
	}
	for name := range helped {
		if _, ok := families[name]; !ok {
			problems = append(problems, fmt.Sprintf("metric %q has HELP but no TYPE", name))
		}
	}
	return problems
}

// sampleFamily resolves a sample name to its declared family, unwrapping
// the histogram/summary component suffixes, and returns the family name
// and type ("" when undeclared).
func sampleFamily(name string, families map[string]string) (string, string) {
	if typ, ok := families[name]; ok {
		return name, typ
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if typ, ok := families[base]; ok && (typ == "histogram" || typ == "summary") {
			return base, typ
		}
	}
	return "", ""
}

// parseSample splits one exposition sample line into name, the raw label
// body (without braces, "" when unlabeled), and the value text.
func parseSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", fmt.Errorf("sample %q has unbalanced braces", line)
		}
		labels = line[i+1 : j]
		rest = strings.TrimSpace(line[j+1:])
	} else {
		var ok bool
		name, rest, ok = strings.Cut(line, " ")
		if !ok {
			return "", "", "", fmt.Errorf("sample %q has no value", line)
		}
	}
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", "", fmt.Errorf("sample %q has no value", name)
	}
	// fields[0] is the value; an optional timestamp may follow.
	return name, labels, fields[0], nil
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
