package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestFiguresDeterministic is the one gate over every cmd/bench figure:
// each runs in virtual time, so at a tiny scale the same seed must print
// the same text and record byte for byte, and another seed must print
// other numbers.
func TestFiguresDeterministic(t *testing.T) {
	for _, f := range Figures {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			run := func(seed int64) (text string, record []byte) {
				var buf bytes.Buffer
				fig, err := f.Run(&buf, Scale{
					Duration: 10 * time.Millisecond,
					Clients:  []int{4},
					Batch:    2 * time.Millisecond,
					Replicas: 3,
					Seed:     seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if fig != nil {
					if record, err = json.Marshal(fig); err != nil {
						t.Fatal(err)
					}
				}
				return buf.String(), record
			}
			text, record := run(1)
			again, againRecord := run(1)
			if text != again || !bytes.Equal(record, againRecord) {
				t.Fatalf("seed 1 printed two figures:\n%s%s\n---\n%s%s", text, record, again, againRecord)
			}
			// The header names the seed; the numbers below it must move too.
			other, _ := run(2)
			_, body, _ := strings.Cut(text, "\n")
			_, otherBody, _ := strings.Cut(other, "\n")
			if body == otherBody {
				t.Fatalf("seeds 1 and 2 printed the same figure:\n%s", text)
			}
		})
	}
}
