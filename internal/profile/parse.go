package profile

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"evorec/internal/rdf"
)

// ParseInterests parses the interest-spec grammar shared by the CLI
// (-interests flag) and the HTTP API (interests= parameter):
// "Class=0.9,OtherClass=0.4". Bare names (no '=') get weight 1; names
// without a scheme resolve in the synthetic schema namespace, anything
// containing "://" is taken as a full IRI.
func ParseInterests(id, spec string) (*Profile, error) {
	if spec == "" {
		return nil, fmt.Errorf("interests must not be empty (e.g. C0001=1,C0002=0.5)")
	}
	p := New(id)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, found := strings.Cut(part, "=")
		w := 1.0
		if found {
			var err error
			w, err = strconv.ParseFloat(weightStr, 64)
			if err != nil {
				return nil, fmt.Errorf("bad weight in %q: %w", part, err)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("invalid weight in %q (want a finite number)", part)
			}
		}
		term := rdf.SchemaIRI(name)
		if strings.Contains(name, "://") {
			term = rdf.NewIRI(name)
		}
		p.SetInterest(term, w)
	}
	return p, nil
}

// ParseUserSpec parses "id:Class=w,Class=w" — an interest spec prefixed
// with the user's ID, the form repeated user/member/pool parameters take.
func ParseUserSpec(spec string) (*Profile, error) {
	id, interests, found := strings.Cut(spec, ":")
	if !found || id == "" {
		return nil, fmt.Errorf("user spec %q must look like id:Class=w,Class=w", spec)
	}
	return ParseInterests(id, interests)
}
