package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSubmitRequest decodes arbitrary JSON the way POST /v1/runs does and
// validates it: Validate must never panic, and a sweep it accepts must be
// one RunSchedulability accepts too — a sweep that passes the POST but
// fails the experiment's own check used to reach the worker and panic it.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"kind":"run","generate":{"Platform":{"Name":"A","M":4,"C":20,"B":20,"Cmin":2,"Bmin":1},"TargetRefUtil":0.8}}`,
		`{"kind":"sweep","sweep":{"platform":"A","tasksets_per_point":-1}}`,
		`{"kind":"sweep","sweep":{"platform":"B","util_min":0.5,"util_max":1.5,"util_step":0.25,"tasksets_per_point":2}}`,
		`{"kind":"sweep","sweep":{"platform":"A","util_step":-0.05}}`,
		`{"kind":"churn","churn":{"base_run":"r0001","events":[{"arrivals":[null],"departures":[""]}]}}`,
		`{"system":{"VMs":[null]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		if req.Validate() != nil || req.Kind != KindSweep {
			return
		}
		cfg, err := req.Sweep.schedConfig(req.Seed)
		if err != nil {
			t.Fatalf("Validate accepted a sweep whose spec does not resolve: %v", err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate accepted a sweep the experiment refuses: %v", err)
		}
	})
}
