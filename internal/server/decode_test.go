package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// decodeCompileBodyTwoPass is the /compile body decoder before the
// single-request path became one pass, kept verbatim as the reference
// DecodeCompileBody must agree with.
func decodeCompileBodyTwoPass(body []byte) (reqs []*Request, batch bool, err error) {
	var probe struct {
		Requests json.RawMessage `json:"requests"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, false, fmt.Errorf("malformed JSON: %w", err)
	}
	if probe.Requests != nil {
		var b wireBatch
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, false, fmt.Errorf("malformed batch: %w", err)
		}
		return b.Requests, true, nil
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, false, fmt.Errorf("malformed request: %w", err)
	}
	return []*Request{&req}, false, nil
}

// FuzzDecodeCompileBody: the one-pass decoder returns the same requests,
// the same batch flag and the same error text as the two-pass reference
// on any body.
func FuzzDecodeCompileBody(f *testing.F) {
	for _, s := range []string{
		`{"id":"a","tuples":"1: Load #x\n","machine":{"preset":"simulation"},"options":{"optimize":true,"sched":"minreg-k=3"},"timeout_ms":50,"wire_schedule":true}`,
		`{"source":"a = b * c\n","machine":{"text":"machine m\npipe 1 loader latency=2 enqueue=1\n"}}`,
		`{"requests":[{"id":"x","source":"a = b\n"},null,{"id":"y"}]}`,
		`{"requests":null}`,
		`{"REQUESTS":[],"id":5}`,
		`{"requests":5}`,
		`{"requests":[{"id":7}]}`,
		`{"id":5}`,
		`{"options":{"lambda":"x"},"machine":{"preset":3}}`,
		`{"timeout_ms":1e400}`,
		`{"Id":"case","ID":"fold","requests":[1]}`,
		`{"id":"dup","id":"last"}`,
		`null`, `5`, `"s"`, `true`, `[1]`, `[]`, `{}`, ``, `{`, `{"id":}`, `{"id":"x"} trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reqs, batch, err := DecodeCompileBody(body)
		wreqs, wbatch, werr := decodeCompileBodyTwoPass(body)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("error %v, reference %v", err, werr)
		}
		if batch != wbatch || !reflect.DeepEqual(reqs, wreqs) {
			t.Fatalf("batch=%v reqs=%+v, reference batch=%v reqs=%+v", batch, reqs, wbatch, wreqs)
		}
	})
}
