package httpapi

import (
	"errors"
	"fmt"
	"strconv"

	"reachac"
)

// ErrBadAttribute marks an attribute value of a kind the graph cannot
// store; the serving layer answers it with CodeBadRequest.
var ErrBadAttribute = errors.New("unsupported attribute type")

// AttrsFromWire converts AddUserRequest.Attrs into facade attributes.
// JSON numbers decode as float64; int is accepted for in-process callers.
func AttrsFromWire(m map[string]any) ([]reachac.Attr, error) {
	attrs := make([]reachac.Attr, 0, len(m))
	for k, val := range m {
		switch t := val.(type) {
		case string:
			attrs = append(attrs, reachac.StringAttr(k, t))
		case bool:
			attrs = append(attrs, reachac.BoolAttr(k, t))
		case float64:
			attrs = append(attrs, reachac.NumberAttr(k, t))
		case int:
			attrs = append(attrs, reachac.IntAttr(k, t))
		default:
			return nil, fmt.Errorf("attribute %q: %w %T (want string, number or bool)", k, ErrBadAttribute, val)
		}
	}
	return attrs, nil
}

// WireDecision renders d with its requester resolved to a name in v
// (falling back to the numeric ID).
func WireDecision(v *reachac.View, d reachac.Decision) Decision {
	req, _ := v.UserName(d.Requester)
	if req == "" {
		req = strconv.FormatUint(uint64(d.Requester), 10)
	}
	return Decision{
		Resource:  string(d.Resource),
		Requester: req,
		Effect:    d.Effect.String(),
		Rule:      d.RuleID,
		Reason:    d.Reason,
	}
}
