package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseAlertRules feeds fuzzer-chosen -alert-rules files to
// ParseAlertRules: parsing never panics, and a ruleset it accepts
// marshals and parses back to the same rules.
func FuzzParseAlertRules(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "alert-rules.json"))
	if err != nil {
		f.Fatal(err)
	}
	defaults, err := json.Marshal(DefaultAlertRules())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add(defaults)
	// The one-rule file the CI endpoint smoke boots tunerd with.
	f.Add([]byte(`[{"name": "ingest-burst", "metric": "tuner_statements_ingested",
  "kind": "rate", "op": ">", "value": 0, "over": "3s",
  "for": "250ms", "severity": "info",
  "summary": "statements arriving"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, err := ParseAlertRules(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(rules)
		if err != nil {
			t.Fatalf("accepted rules do not marshal: %v", err)
		}
		back, err := ParseAlertRules(again)
		if err != nil {
			t.Fatalf("accepted rules re-marshal to a file that does not parse: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, rules) {
			t.Fatalf("rules changed across a marshal round trip:\n%+v\n%+v", rules, back)
		}
	})
}
