// Package exporter is outside the name-checking scopes; it may spell
// metric-like strings however it wants (e.g. docs or test fixtures),
// but it may not write exposition headers.
package exporter

const doc = "# TYPE scserved_Whatever gauge" // want `exposition header written outside internal/obs`

func name() string { return "scserved_NotAMetricHere_total" }
