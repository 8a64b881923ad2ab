// Package promtest checks a Prometheus text exposition (format 0.0.4) for
// the structure a scraper relies on, so tests of /metrics and /federate
// state only how they obtained the body:
//
//   - a family has at most one HELP and one TYPE line, both before its
//     first sample;
//   - a family's lines are contiguous: once another family starts, none of
//     its lines follow;
//   - a histogram's cumulative bucket counts never decrease, and its
//     le="+Inf" bucket equals its _count.
package promtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Family is one metric family of an exposition.
type Family struct {
	Name string
	// Type is the declared TYPE ("" when the exposition declares none).
	Type    string
	Samples []Sample
}

// Sample is one sample line. Name is the family name, or for a histogram
// the family name plus _bucket, _sum or _count.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Check fails t unless body is a well-formed exposition, and returns its
// families in order of appearance.
func Check(t testing.TB, body string) []Family {
	t.Helper()
	fams, err := Parse(body)
	if err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	return fams
}

type family struct {
	Family
	help, typ bool
}

// Parse splits body into families and checks the rules in the package
// comment.
func Parse(body string) ([]Family, error) {
	var order []*family
	byName := map[string]*family{}
	get := func(name string) *family {
		f, ok := byName[name]
		if !ok {
			f = &family{Family: Family{Name: name}}
			byName[name] = f
			order = append(order, f)
		}
		return f
	}
	var cur *family
	enter := func(f *family) error {
		if f == cur {
			return nil
		}
		if cur != nil && (f.help || f.typ || len(f.Samples) > 0) {
			return fmt.Errorf("family %s is split: its lines are not contiguous", f.Name)
		}
		cur = f
		return nil
	}

	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // plain comment
			}
			f := get(fields[2])
			if err := enter(f); err != nil {
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
			if len(f.Samples) > 0 {
				return nil, fmt.Errorf("line %d: %s line of %s after its samples", i+1, fields[1], f.Name)
			}
			if fields[1] == "HELP" {
				if f.help {
					return nil, fmt.Errorf("line %d: second HELP line for %s", i+1, f.Name)
				}
				f.help = true
				continue
			}
			if f.typ {
				return nil, fmt.Errorf("line %d: second TYPE line for %s", i+1, f.Name)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", i+1, line)
			}
			f.typ, f.Type = true, fields[3]
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
		f := get(familyOf(s.Name, byName))
		if err := enter(f); err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
		f.Samples = append(f.Samples, s)
	}

	out := make([]Family, len(order))
	for i, f := range order {
		if f.Type == "histogram" {
			if err := checkHistogram(f.Family); err != nil {
				return nil, err
			}
		}
		out[i] = f.Family
	}
	return out, nil
}

// familyOf maps a sample name to its family: a histogram's _bucket, _sum
// and _count samples belong to the declared histogram family.
func familyOf(name string, byName map[string]*family) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f, ok := byName[base]; ok && f.Type == "histogram" {
				return base
			}
		}
	}
	return name
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name, line = line[:end], line[end:]
	if line[0] == '{' {
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			eq := strings.Index(line, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("malformed labels in sample of %s", s.Name)
			}
			key := strings.TrimPrefix(line[:eq], ",")
			var val strings.Builder
			j := eq + 2
			for ; j < len(line) && line[j] != '"'; j++ {
				if line[j] == '\\' && j+1 < len(line) {
					j++
					if line[j] == 'n' {
						val.WriteByte('\n')
						continue
					}
				}
				val.WriteByte(line[j])
			}
			if j == len(line) {
				return s, fmt.Errorf("unterminated label value in sample of %s", s.Name)
			}
			if _, dup := s.Labels[key]; dup {
				return s, fmt.Errorf("label %s repeated in sample of %s", key, s.Name)
			}
			s.Labels[key] = val.String()
			line = line[j+1:]
			if !strings.HasPrefix(line, ",") && !strings.HasPrefix(line, "}") {
				return s, fmt.Errorf("malformed labels in sample of %s", s.Name)
			}
		}
		line = line[1:]
	}
	fields := strings.Fields(line)
	if len(fields) != 1 {
		return s, fmt.Errorf("sample of %s: want one value, got %q", s.Name, line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample of %s: %v", s.Name, err)
	}
	s.Value = v
	return s, nil
}

// checkHistogram checks every series of one histogram family (a series is
// a label set without le).
func checkHistogram(f Family) error {
	type series struct {
		last, inf, count float64
		hasInf, hasCount bool
	}
	all := map[string]*series{}
	var keys []string
	for _, s := range f.Samples {
		k := seriesKey(s.Labels)
		sr, ok := all[k]
		if !ok {
			sr = &series{}
			all[k] = sr
			keys = append(keys, k)
		}
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s{%s}: bucket without le", f.Name, k)
			}
			if s.Value < sr.last {
				return fmt.Errorf("histogram %s{%s}: bucket le=%q count %g below the previous bucket's %g",
					f.Name, k, le, s.Value, sr.last)
			}
			sr.last = s.Value
			if le == "+Inf" {
				sr.inf, sr.hasInf = s.Value, true
			}
		case f.Name + "_count":
			sr.count, sr.hasCount = s.Value, true
		}
	}
	for _, k := range keys {
		sr := all[k]
		if !sr.hasInf || !sr.hasCount {
			return fmt.Errorf("histogram %s{%s}: missing the +Inf bucket or _count", f.Name, k)
		}
		if sr.inf != sr.count {
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", f.Name, k, sr.inf, sr.count)
		}
	}
	return nil
}

func seriesKey(labels map[string]string) string {
	var kv []string
	for k, v := range labels {
		if k != "le" {
			kv = append(kv, k+"="+strconv.Quote(v))
		}
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}
