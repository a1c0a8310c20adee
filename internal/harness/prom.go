package harness

import (
	"strconv"
	"strings"
)

// ParsePromText parses a Prometheus text exposition into sample → value.
// Keys keep their label sets verbatim (`name{label="x"}`), so callers can
// look up exact samples or fold families with PromSum. Comment and type
// lines, blank lines, and malformed samples are skipped — the parser is
// for benchmark checks over fsamd's own exposition, not a general
// scraper.
func ParsePromText(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the field after the last space outside braces; our
		// expositions never put spaces in label values' tails, so the last
		// space split is sufficient.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// PromSum folds every sample of one metric family — `family` alone and
// `family{...}` with any labels — into a single total.
func PromSum(samples map[string]float64, family string) float64 {
	var n float64
	for k, v := range samples {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += v
		}
	}
	return n
}
