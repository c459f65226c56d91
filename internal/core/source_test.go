package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// sharedSites returns the shared experiment's sites as Sites yields them.
func sharedSites(t *testing.T) []Site {
	t.Helper()
	a := sharedExperiment(t)
	var sites []Site
	if err := Sites(a.Dataset(), Options{Profiles: a.Profiles()})(func(s Site) error {
		sites = append(sites, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(sites) < 3 {
		t.Fatalf("shared experiment has %d sites, want at least 3", len(sites))
	}
	return sites
}

// sliceSource yields sites in the given order.
func sliceSource(sites []Site) Source {
	return func(yield func(Site) error) error {
		for _, s := range sites {
			if err := yield(s); err != nil {
				return err
			}
		}
		return nil
	}
}

// analyzeShared analyzes src over the shared experiment's dataset.
func analyzeShared(t *testing.T, ctx context.Context, src Source) (*Analysis, error) {
	t.Helper()
	a := sharedExperiment(t)
	return Analyze(a.Dataset(), src, a.filter, Options{Profiles: a.Profiles(), Workers: 4, Context: ctx})
}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the analysis", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSourceMatchesNew feeds New's own sites through Analyze, with an
// empty site in between, and requires New's pages and vetting tally.
func TestSourceMatchesNew(t *testing.T) {
	want := sharedExperiment(t)
	sites := sharedSites(t)
	withEmpty := append([]Site{sites[0], {}}, sites[1:]...)
	got, err := analyzeShared(t, context.Background(), sliceSource(withEmpty))
	if err != nil {
		t.Fatal(err)
	}
	if got.Vetting() != want.Vetting() {
		t.Errorf("vetting %+v, want %+v", got.Vetting(), want.Vetting())
	}
	if len(got.Pages()) != len(want.Pages()) {
		t.Fatalf("%d pages, want %d", len(got.Pages()), len(want.Pages()))
	}
	for i, pa := range got.Pages() {
		if pa.Key != want.Pages()[i].Key || !reflect.DeepEqual(pa.Cmp.Nodes, want.Pages()[i].Cmp.Nodes) {
			t.Fatalf("page %d (%v) differs from New's", i, pa.Key)
		}
	}
}

// TestSourceContract breaks each rule a source must keep and requires an
// error, no analysis, and every pool goroutine gone.
func TestSourceContract(t *testing.T) {
	sites := sharedSites(t)
	errSource := errors.New("source failed")
	mixed := Site{Pages: append(slices.Clone(sites[0].Pages), sites[1].Pages[0]), Keys: sites[0].Keys}
	cases := []struct {
		name string
		src  Source
		want func(error) bool
	}{
		{"out-of-order", sliceSource([]Site{sites[1], sites[0]}), func(err error) bool {
			return strings.Contains(err.Error(), "ascending site order")
		}},
		{"repeated-site", sliceSource([]Site{sites[0], sites[0]}), func(err error) bool {
			return strings.Contains(err.Error(), "ascending site order")
		}},
		{"page-of-another-site", sliceSource([]Site{mixed}), func(err error) bool {
			return strings.Contains(err.Error(), "page of site")
		}},
		{"source-error", func(yield func(Site) error) error {
			for _, s := range sites[:2] {
				if err := yield(s); err != nil {
					return err
				}
			}
			return errSource
		}, func(err error) bool { return err == errSource }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			a, err := analyzeShared(t, context.Background(), c.src)
			if err == nil || a != nil {
				t.Fatalf("got analysis %v, err %v; want only an error", a != nil, err)
			}
			if !c.want(err) {
				t.Errorf("unexpected error: %v", err)
			}
			settle(t, base)
		})
	}
}

// TestSourceCanceled cancels the context between two sites: yield must
// return the context's error, which the source passes back, and the
// analysis must end with it and no goroutine left behind.
func TestSourceCanceled(t *testing.T) {
	sites := sharedSites(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var yieldErr error
	a, err := analyzeShared(t, ctx, func(yield func(Site) error) error {
		if err := yield(sites[0]); err != nil {
			return err
		}
		cancel()
		yieldErr = yield(sites[1])
		return yieldErr
	})
	if !errors.Is(yieldErr, context.Canceled) {
		t.Errorf("yield after cancel returned %v, want context.Canceled", yieldErr)
	}
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("got analysis %v, err %v; want context.Canceled only", a != nil, err)
	}
	settle(t, base)
}
