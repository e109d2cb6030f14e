package main

import (
	"math"
	"strings"
	"testing"
)

// TestSelectStrategy pins how -controller, -reactive and -control-period
// resolve to an operating strategy, and which combinations are refused.
func TestSelectStrategy(t *testing.T) {
	cases := []struct {
		name       string
		controller string
		reactive   float64
		period     float64
		want       string
		wantTarget float64
		wantErr    string // substring of the error; "" means success
	}{
		{name: "no flags", want: "static", period: 20},
		{name: "explicit static", controller: "static", period: 20, want: "static"},
		{name: "static ignores period", controller: "static", period: 0, want: "static"},
		{name: "reactive flag alone", reactive: 0.6, period: 20, want: "reactive", wantTarget: 0.6},
		{name: "reactive default target", controller: "reactive", period: 20, want: "reactive", wantTarget: 0.7},
		{name: "reactive with target", controller: "reactive", reactive: 0.5, period: 20, want: "reactive", wantTarget: 0.5},
		{name: "model", controller: "model", period: 100, want: "model"},

		{name: "negative target", reactive: -1, period: 20, wantErr: "-reactive target"},
		{name: "negative target with reactive", controller: "reactive", reactive: -0.3, period: 20, wantErr: "-reactive target"},
		{name: "NaN target", reactive: math.NaN(), period: 20, wantErr: "-reactive target"},
		{name: "target of one", reactive: 1, period: 20, wantErr: "-reactive target"},
		{name: "target above one", controller: "reactive", reactive: 1.5, period: 20, wantErr: "-reactive target"},
		{name: "+Inf target", reactive: math.Inf(1), period: 20, wantErr: "-reactive target"},
		{name: "static contradicts reactive", controller: "static", reactive: 0.6, period: 20, wantErr: "contradicts"},
		{name: "model contradicts reactive", controller: "model", reactive: 0.6, period: 20, wantErr: "contradicts"},
		{name: "unknown controller", controller: "pid", period: 20, wantErr: "must be static, reactive or model"},

		{name: "model zero period", controller: "model", period: 0, wantErr: "-control-period"},
		{name: "model negative period", controller: "model", period: -5, wantErr: "-control-period"},
		{name: "reactive zero period", reactive: 0.6, period: 0, wantErr: "-control-period"},
		{name: "reactive NaN period", controller: "reactive", period: math.NaN(), wantErr: "-control-period"},
		{name: "reactive +Inf period", controller: "reactive", period: math.Inf(1), wantErr: "-control-period"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, target, err := selectStrategy(tc.controller, tc.reactive, tc.period)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("selectStrategy(%q, %g, %g) = (%q, %g, %v), want an error containing %q",
						tc.controller, tc.reactive, tc.period, got, target, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("selectStrategy(%q, %g, %g): %v", tc.controller, tc.reactive, tc.period, err)
			}
			if got != tc.want || target != tc.wantTarget {
				t.Errorf("selectStrategy(%q, %g, %g) = (%q, %g), want (%q, %g)",
					tc.controller, tc.reactive, tc.period, got, target, tc.want, tc.wantTarget)
			}
		})
	}
}
