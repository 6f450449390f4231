package consequence_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	_ "repro"
)

// TestImportRegistersNoHTTPHandlers checks that importing the library
// leaves the host program's HTTP state alone: no package it links
// registers a handler on http.DefaultServeMux (net/http/pprof's init
// would mount /debug/pprof/ there).
func TestImportRegistersNoHTTPHandlers(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	if _, pattern := http.DefaultServeMux.Handler(req); pattern != "" {
		t.Errorf("GET /debug/pprof/ is served by DefaultServeMux pattern %q after importing the library", pattern)
	}
}
