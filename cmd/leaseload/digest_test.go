package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"leasing"
	"leasing/internal/sim"
)

// tenantDigests pins every synthesized tenant: its events, its wire spec
// and the run and final snapshot of the leaser it is served with, hashed
// per domain and arrival process over tenantDigestSeeds seeds. The
// digests were captured when engine mode still built its leasers apart
// from the wire spec; they must never be regenerated to make a change
// pass.
var tenantDigests = map[string]string{
	"days/constant":     "24e0136ca075f7e6ff94346cda57d889c3de71524bda4eba8108e4c479efc7e5",
	"days/diurnal":      "46d0cd2c8b7cab61c3acb6a68cd8012474b13acfef10eb628177cbdfbd7d1c23",
	"days/bursty":       "63203203d7bfd02836a35d04a9841f2309b98d7914295b98249ea3eef75e607e",
	"deadline/constant": "df91f62dea41970502c1e29a98de32ad8ec044c8bce3f33cf81fac23f67e3757",
	"deadline/diurnal":  "1c4f5df96d63b16ca2d20f0ffb98ab14c530f54adc2184a4920e1fa09de58608",
	"deadline/bursty":   "b4f4ddcb14a4083b8cd7c49171f5ef8e8eee75946e55c32ec9438037058b7666",
	"elements/constant": "36c72d74b6428db3d458540640928b0e0c5a0a89c4db6d37e2539d93c19a26fb",
	"elements/diurnal":  "3dc282b461660bc3e4288730447d812071f9da18f5daef86e58a287728280c73",
	"elements/bursty":   "b0ecd6162f5f8623480d3e9cac5622fab7f221b94f4b93019b6f2354abeea22f",
	"facility/constant": "830cb7183b06bfd46c5f392b04a4edbbd5480f0b93740e4f7072782b68be082f",
	"facility/diurnal":  "4969f703892db71fa232f5c9cc0a7df995b9d349234783636b50b9ec96de301a",
	"facility/bursty":   "8aad1c2b5c890b35466e3c0c76dcee469c52d5a60fc6fe40bdca2bc5d00a9733",
	"steiner/constant":  "0ed91c0749052a6b1f3a6525941fbb35230d81f35ebe46921c9d2fdfcab31ab3",
	"steiner/diurnal":   "2de84ff493b2ab8652634f49827a58e4c2aa94e37de541dab80e0261722ce637",
	"steiner/bursty":    "bbd1e5b7b802f10050b38fb8d5c1716ff7cc2c5ff970d0f9eb0193f2d657734a",
	"reusable/constant": "dca60876ebda8ffe320a889f81d9b7ff5986b445f470348a5e5ea514bb42e761",
	"reusable/diurnal":  "000a272855b267722b14e84095830ea4c533afa2ed7916774be1d150f2a32b2e",
	"reusable/bursty":   "1440b0f797c10c4c2696c2c55c8fc71e296ca1e102e52260b5d26691452e677c",
}

const tenantDigestSeeds = 4

func TestTenantDigest(t *testing.T) {
	cfg := leasing.PowerLeaseConfig(3, 4, 0.55)
	for kind, domain := range domainOrder {
		for _, arrival := range []string{"constant", "diurnal", "bursty"} {
			name := domain + "/" + arrival
			h := sha256.New()
			for s := range tenantDigestSeeds {
				tn, err := buildTenant(s, kind, cfg, sim.TrialSeed(int64(7+s), s), 80, arrival, 16)
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, s, err)
				}
				spec, err := json.Marshal(tn.spec)
				if err != nil {
					t.Fatal(err)
				}
				lsr, err := tn.spec.Build()
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, s, err)
				}
				run, err := leasing.Replay(lsr, tn.events)
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, s, err)
				}
				fmt.Fprintf(h, "%s\n%#v\n%s\n%#v\n%#v\n", tn.name, tn.events, spec, run, lsr.Snapshot())
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := tenantDigests[name]; got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
}
