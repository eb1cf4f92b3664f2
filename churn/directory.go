package churn

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"dlpt"
	"dlpt/engine"
)

// resources is the size of the resource-id pool RunDirectory
// registers and withdraws.
const resources = 64

// DirectoryStats reports what one attribute-level churn run did:
// Stats for the membership half and the registrations, beside the
// query counts.
type DirectoryStats struct {
	Stats
	Finds int
	// Matches counts resource ids returned across all Find calls.
	Matches int
	// FinalResources is the registered-resource count after the run
	// (post final recovery and validation).
	FinalResources int
}

// directory attribute corpus: every registration declares one value
// per attribute, so each attribute sub-tree ("cpu=", "mem=", "site=")
// sees its own churn as resources come and go.
var (
	dirCPUs  = []string{"x86_64", "arm64", "riscv64", "ppc64"}
	dirMems  = []string{"016", "032", "064", "128", "256"}
	dirSites = []string{"lyon", "nancy", "rennes", "sophia", "toulouse"}
)

func resName(id int) string { return fmt.Sprintf("res%04d", id) }

func dirResource(id int, r *rand.Rand) dlpt.Resource {
	return dlpt.Resource{
		ID: resName(id),
		Attributes: map[string]string{
			"cpu":  dirCPUs[r.Intn(len(dirCPUs))],
			"mem":  dirMems[r.Intn(len(dirMems))],
			"site": dirSites[r.Intn(len(dirSites))],
		},
	}
}

// RunDirectory drives a Directory through cfg.Ops steps of resource
// churn — register/unregister of multi-attribute resources and
// conjunctive queries (exact, prefix and range predicates) — mixed
// with the membership churn, replication and balancing ticks of Run,
// on the directory's engine. The directory is left repaired and
// validated.
func RunDirectory(ctx context.Context, dir *dlpt.Directory, cfg Config) (DirectoryStats, error) {
	var st DirectoryStats
	// live tracks the registered resource ids the driver owns.
	live := make(map[int]bool)
	eng := dir.Engine()

	// reconcile squares the bookkeeping with what a crash actually
	// destroyed. The precise lost-key set names the "attr=value"
	// nodes that vanished outright; a recovered node can additionally
	// have dropped the ids declared under it after the last
	// replication tick (its replica predates them), so resources
	// touching a lost key are withdrawn immediately and the rest of
	// the live set is swept for value-level loss. Ids and attributes
	// are visited in order: each Discover draws from the engine's
	// generator, so map order would make the run depend on more than
	// its seed.
	reconcile := func(rep engine.RecoveryReport) error {
		lost := make(map[string]bool, len(rep.LostKeys))
		for _, k := range rep.LostKeys {
			lost[k] = true
		}
		for _, id := range slices.Sorted(maps.Keys(live)) {
			name := resName(id)
			attrs, ok := dir.Describe(name)
			if !ok {
				delete(live, id)
				continue
			}
			gone := false
			for _, a := range slices.Sorted(maps.Keys(attrs)) {
				key := a + "=" + attrs[a]
				if lost[key] {
					gone = true
					break
				}
				res, err := eng.Discover(ctx, key)
				if err != nil {
					return err
				}
				if !slices.Contains(res.Values, name) {
					gone = true
					break
				}
			}
			if gone {
				if _, err := dir.UnregisterResource(ctx, name); err != nil {
					return err
				}
				delete(live, id)
			}
		}
		return nil
	}

	step := func(i int, r *rand.Rand, repair func() error) error {
		id := r.Intn(resources)
		switch i % 4 {
		case 0: // mutate: (re-)register a resource, re-rolling its
			// attributes — each attribute sub-tree sees churn.
			if err := repair(); err != nil {
				return err
			}
			if live[id] {
				if _, err := dir.UnregisterResource(ctx, resName(id)); err != nil {
					return err
				}
			}
			if err := dir.RegisterResource(ctx, dirResource(id, r)); err != nil {
				return err
			}
			live[id] = true
			st.Registers++
		case 2: // mutate: withdraw a resource
			if !live[id] {
				return nil
			}
			if err := repair(); err != nil {
				return err
			}
			if _, err := dir.UnregisterResource(ctx, resName(id)); err != nil {
				return err
			}
			delete(live, id)
			st.Unregisters++
		default: // read: a conjunctive attribute query. Queries
			// traverse the attribute sub-trees, so they too need a
			// repaired tree.
			if err := repair(); err != nil {
				return err
			}
			var preds []dlpt.Where
			switch i % 3 {
			case 0:
				preds = []dlpt.Where{
					{Attr: "cpu", Equals: dirCPUs[r.Intn(len(dirCPUs))]},
				}
			case 1:
				preds = []dlpt.Where{
					{Attr: "site", HasPrefix: dirSites[r.Intn(len(dirSites))][:2]},
					{Attr: "cpu", Equals: dirCPUs[r.Intn(len(dirCPUs))]},
				}
			default:
				preds = []dlpt.Where{
					{Attr: "mem", Min: "032", Max: "128"},
				}
			}
			matches, _, err := dir.Find(ctx, preds...)
			if err != nil {
				return err
			}
			st.Finds++
			st.Matches += len(matches)
		}
		return nil
	}

	if err := drive(ctx, eng, cfg, &st.Stats, step, reconcile); err != nil {
		return st, err
	}
	if err := dir.Validate(ctx); err != nil {
		return st, fmt.Errorf("churn: post-run directory validation: %w", err)
	}
	st.FinalResources = dir.NumResources()
	return st, nil
}
