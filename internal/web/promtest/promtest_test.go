package promtest

import (
	"strings"
	"testing"
)

const good = `# HELP a_total A.
# TYPE a_total counter
a_total{node="x"} 1
a_total{node="y",path="we\"ird\\pa\nth"} 2
# a plain comment
# HELP h_seconds H.
# TYPE h_seconds histogram
h_seconds_bucket{le="0.5"} 1
h_seconds_bucket{le="+Inf"} 2
h_seconds_sum 3
h_seconds_count 2
untyped 7
`

func TestParseWellFormed(t *testing.T) {
	fams := Check(t, good)
	if len(fams) != 3 {
		t.Fatalf("families %+v, want a_total, h_seconds, untyped", fams)
	}
	if fams[0].Type != "counter" || len(fams[0].Samples) != 2 || fams[0].Samples[1].Labels["path"] != "we\"ird\\pa\nth" {
		t.Fatalf("a_total parsed as %+v", fams[0])
	}
	if fams[1].Type != "histogram" || len(fams[1].Samples) != 4 {
		t.Fatalf("h_seconds parsed as %+v", fams[1])
	}
	if fams[2].Type != "" || fams[2].Samples[0].Value != 7 {
		t.Fatalf("untyped parsed as %+v", fams[2])
	}
}

func TestParseRejects(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"second TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n", "second TYPE"},
		{"split family", "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n", "not contiguous"},
		{"TYPE after samples", "a 1\n# TYPE a counter\n", "after its samples"},
		{"decreasing bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n", "below the previous"},
		{"+Inf != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n", "!= _count"},
		{"no value", "a\n", "malformed sample"},
	} {
		_, err := Parse(tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
