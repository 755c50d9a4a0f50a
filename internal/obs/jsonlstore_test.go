package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestStoreTornTail: a file whose last line lost its newline — torn mid
// record, or intact but unterminated — takes the next append on a line of
// its own. Every intact record reloads, and the store's line count
// matches the file's, which is what compaction counts against.
func TestStoreTornTail(t *testing.T) {
	type rec struct{ N int }
	for _, tc := range []struct {
		name, tail string
		want       []int
	}{
		{"torn", `{"N":2`, []int{1, 3}},
		{"unterminated", `{"N":2}`, []int{1, 2, 3}},
		{"intact", `{"N":2}` + "\n", []int{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(`{"N":1}`+"\n"+tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := openStore[rec](path, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.append(&rec{N: 3}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(data), "\n"); s.lines != n || !strings.HasSuffix(string(data), "\n") {
				t.Fatalf("store counts %d lines, file holds %d:\n%s", s.lines, n, data)
			}
			s.close()

			s, err = openStore[rec](path, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			var got []int
			for _, r := range s.newest(0) {
				got = append(got, r.N)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("reloaded %v, want %v:\n%s", got, tc.want, data)
			}
		})
	}
}
