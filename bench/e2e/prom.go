package e2e

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
)

// Scrape is one parsed GET /metrics body: every sample line, labels kept as
// the raw text between the braces.
type Scrape struct {
	Bytes   int
	samples []promSample
}

type promSample struct {
	name, labels string
	value        float64
}

// ParseScrape reads the Prometheus text exposition format.
func ParseScrape(body []byte) *Scrape {
	s := &Scrape{Bytes: len(body)}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		id := line[:sp]
		name, labels := id, ""
		if i := strings.IndexByte(id, '{'); i >= 0 && strings.HasSuffix(id, "}") {
			name, labels = id[:i], id[i+1:len(id)-1]
		}
		s.samples = append(s.samples, promSample{name, labels, v})
	}
	return s
}

// Sum adds every sample of the family name whose label text contains each
// of the given `key="value"` fragments — across devices, tenants or buses.
func (s *Scrape) Sum(name string, having ...string) float64 {
	total := 0.0
next:
	for _, m := range s.samples {
		if m.name != name {
			continue
		}
		for _, h := range having {
			if !strings.Contains(m.labels, h) {
				continue next
			}
		}
		total += m.value
	}
	return total
}
