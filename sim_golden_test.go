package nprt

// Golden simulation digests for the paper's Table I cases. Each digest
// folds one sim.Run's observable Result — job and miss counters, mode
// counts, busy time, maximum lateness and the exact float64 bits of the
// error accumulator and of every per-task error and response accumulator —
// into one FNV-1a word. The runs mirror perfbench's plan-paper workload:
// the seven Table I methods, 100 hyper-periods, DropLate for EDF-Accurate.
// Every digest is pinned for both dispatch engines, so the table is also
// the cross-engine golden: a change to the dispatch core (or to anything
// else under the simulator) that reorders one floating-point addition
// fails here.

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"nprt/internal/sim"
	"nprt/internal/stats"
	"nprt/internal/workload"
)

// tableIMethods are plan-paper's simulated methods, in its order.
var tableIMethods = []string{
	"EDF-Accurate", "EDF-Imprecise", "EDF+ESR", "EDF+ESR(C)",
	"ILP+OA", "ILP+Post+OA", "Flipped EDF",
}

// tableISimGolden maps "case/method/seed" to the digest of the run; the
// indexed and the linear-scan engine must both produce it.
var tableISimGolden = map[string]uint64{
	"Rnd1/EDF-Accurate/1": 0x7d620d24a7905804, "Rnd1/EDF-Accurate/7": 0xd03ad1cc79bb6afe,
	"Rnd1/EDF-Imprecise/1": 0xe0e50fda1c70fd9a, "Rnd1/EDF-Imprecise/7": 0x182c1d5a22a47006,
	"Rnd1/EDF+ESR/1": 0x1a01b4469f217600, "Rnd1/EDF+ESR/7": 0x4afbb0a23c7a857c,
	"Rnd1/EDF+ESR(C)/1": 0x8e67d25c3a53b4d0, "Rnd1/EDF+ESR(C)/7": 0x7cc38ab258cbd044,
	"Rnd1/ILP+OA/1": 0xde5b4000794c6037, "Rnd1/ILP+OA/7": 0xd9bf069bb8e5c08e,
	"Rnd1/ILP+Post+OA/1": 0x9b5c808ceb74c94e, "Rnd1/ILP+Post+OA/7": 0x5bb08305362466e9,
	"Rnd1/Flipped EDF/1": 0x88c27e2e54248ea0, "Rnd1/Flipped EDF/7": 0x5c668863b62daa62,
	"Rnd2/EDF-Accurate/1": 0xed3028d55c278863, "Rnd2/EDF-Accurate/7": 0x98c3a3a58c2b0552,
	"Rnd2/EDF-Imprecise/1": 0xe045a91390ac708, "Rnd2/EDF-Imprecise/7": 0xf3dab7e0c6400d95,
	"Rnd2/EDF+ESR/1": 0x9c3b8fc932f1350a, "Rnd2/EDF+ESR/7": 0x271659e85e700ef4,
	"Rnd2/EDF+ESR(C)/1": 0xfb9150217bc73584, "Rnd2/EDF+ESR(C)/7": 0x98a31a305b42be7b,
	"Rnd2/ILP+OA/1": 0xc8e240c6f5e06835, "Rnd2/ILP+OA/7": 0x46db8eedba244447,
	"Rnd2/ILP+Post+OA/1": 0xc8e240c6f5e06835, "Rnd2/ILP+Post+OA/7": 0x46db8eedba244447,
	"Rnd2/Flipped EDF/1": 0xc8e240c6f5e06835, "Rnd2/Flipped EDF/7": 0x46db8eedba244447,
	"Rnd3/EDF-Accurate/1": 0x3d6b568c3ad48711, "Rnd3/EDF-Accurate/7": 0xaa515905b7e4e6d1,
	"Rnd3/EDF-Imprecise/1": 0xd68e2832cae704c9, "Rnd3/EDF-Imprecise/7": 0xf807a2cafb8a6247,
	"Rnd3/EDF+ESR/1": 0xad7156cc823b2e88, "Rnd3/EDF+ESR/7": 0x12115320c263712e,
	"Rnd3/EDF+ESR(C)/1": 0xad7156cc823b2e88, "Rnd3/EDF+ESR(C)/7": 0x12115320c263712e,
	"Rnd3/ILP+OA/1": 0x73c8260fff174e46, "Rnd3/ILP+OA/7": 0x7057e76c05b8bd6d,
	"Rnd3/ILP+Post+OA/1": 0x73c8260fff174e46, "Rnd3/ILP+Post+OA/7": 0x7057e76c05b8bd6d,
	"Rnd3/Flipped EDF/1": 0xa4dbbfca163845d, "Rnd3/Flipped EDF/7": 0x3017b8378f45183d,
	"Rnd4/EDF-Accurate/1": 0x9601101b5baa4fbd, "Rnd4/EDF-Accurate/7": 0xdd3f07ad5b9831a5,
	"Rnd4/EDF-Imprecise/1": 0x62d006252bdada6c, "Rnd4/EDF-Imprecise/7": 0xebdb72bd87d587e9,
	"Rnd4/EDF+ESR/1": 0x81d956cd4bd77da9, "Rnd4/EDF+ESR/7": 0xd54c2207179e26d4,
	"Rnd4/EDF+ESR(C)/1": 0x9851dcab3220b1f, "Rnd4/EDF+ESR(C)/7": 0x2dbec68441bbffa4,
	"Rnd4/ILP+OA/1": 0xaeff35b33ed7f684, "Rnd4/ILP+OA/7": 0x9ed7bbf383affa88,
	"Rnd4/ILP+Post+OA/1": 0xc3873224c5047a3f, "Rnd4/ILP+Post+OA/7": 0xc6b19d716d571520,
	"Rnd4/Flipped EDF/1": 0x748d0e292965cb1c, "Rnd4/Flipped EDF/7": 0x14076a6b929f8db8,
	"Rnd5/EDF-Accurate/1": 0x2ff3e291719ea6d, "Rnd5/EDF-Accurate/7": 0x309f5611f900a6c3,
	"Rnd5/EDF-Imprecise/1": 0xb6d390ad0cd5adca, "Rnd5/EDF-Imprecise/7": 0x9e22b398c9da903,
	"Rnd5/EDF+ESR/1": 0x2ff3e291719ea6d, "Rnd5/EDF+ESR/7": 0x309f5611f900a6c3,
	"Rnd5/EDF+ESR(C)/1": 0x2ff3e291719ea6d, "Rnd5/EDF+ESR(C)/7": 0x309f5611f900a6c3,
	"Rnd5/ILP+OA/1": 0x2ff3e291719ea6d, "Rnd5/ILP+OA/7": 0x309f5611f900a6c3,
	"Rnd5/ILP+Post+OA/1": 0x2ff3e291719ea6d, "Rnd5/ILP+Post+OA/7": 0x309f5611f900a6c3,
	"Rnd5/Flipped EDF/1": 0xaf26fed787dfb9d2, "Rnd5/Flipped EDF/7": 0xcce36ac31dbb6553,
	"Rnd6/EDF-Accurate/1": 0x81b35207174141a3, "Rnd6/EDF-Accurate/7": 0x97a4e6656f77c8d3,
	"Rnd6/EDF-Imprecise/1": 0x925cd17995d68117, "Rnd6/EDF-Imprecise/7": 0xfe2db569955eb973,
	"Rnd6/EDF+ESR/1": 0xfb3d9f25660d4336, "Rnd6/EDF+ESR/7": 0x964121b3ae9e7ebe,
	"Rnd6/EDF+ESR(C)/1": 0xabfcfc116c97cd58, "Rnd6/EDF+ESR(C)/7": 0xb45e5530cc035163,
	"Rnd6/ILP+OA/1": 0xb6fb966b17d0e41e, "Rnd6/ILP+OA/7": 0x48b6dd82f8850be6,
	"Rnd6/ILP+Post+OA/1": 0xa0cf5ee50ad42f56, "Rnd6/ILP+Post+OA/7": 0xb678f567209c77fb,
	"Rnd6/Flipped EDF/1": 0x2b479c5d500bbe43, "Rnd6/Flipped EDF/7": 0x404d39e022d3d2cf,
	"Rnd7/EDF-Accurate/1": 0xbe9a878734597c7e, "Rnd7/EDF-Accurate/7": 0xfb6850957a52f36b,
	"Rnd7/EDF-Imprecise/1": 0x361cbbe5bc6d1edd, "Rnd7/EDF-Imprecise/7": 0x33a9acb033e13933,
	"Rnd7/EDF+ESR/1": 0xb751ab6f646a647a, "Rnd7/EDF+ESR/7": 0xbc39cdd9a3e1cfb8,
	"Rnd7/EDF+ESR(C)/1": 0x4c3c5c38543c357a, "Rnd7/EDF+ESR(C)/7": 0x9df2d5add4a02da0,
	"Rnd7/ILP+OA/1": 0xac9c62ee37ba8d3c, "Rnd7/ILP+OA/7": 0xffca3014094056f2,
	"Rnd7/ILP+Post+OA/1": 0x570ec53b9ee3ae01, "Rnd7/ILP+Post+OA/7": 0x1b9a16eb6ef86bc6,
	"Rnd7/Flipped EDF/1": 0x8b550e53f7088dbb, "Rnd7/Flipped EDF/7": 0x5504ea287577844d,
	"Rnd8/EDF-Accurate/1": 0x3ae7d0025fefb941, "Rnd8/EDF-Accurate/7": 0x727f3130cb055c32,
	"Rnd8/EDF-Imprecise/1": 0x170bc1c3b795f281, "Rnd8/EDF-Imprecise/7": 0xb18dab912e6c000a,
	"Rnd8/EDF+ESR/1": 0x3b3cd9c2a40dfb63, "Rnd8/EDF+ESR/7": 0x11df0c822c8eaa7e,
	"Rnd8/EDF+ESR(C)/1": 0xcd1746e30d03c415, "Rnd8/EDF+ESR(C)/7": 0x83dcc0728482aeed,
	"Rnd8/ILP+OA/1": 0xe1a45313eea3f17b, "Rnd8/ILP+OA/7": 0x4fc63de0f3c55bd4,
	"Rnd8/ILP+Post+OA/1": 0x3fe74f1c2cf7ac79, "Rnd8/ILP+Post+OA/7": 0x6cc3b370b3370489,
	"Rnd8/Flipped EDF/1": 0x708a9baf0dd18a05, "Rnd8/Flipped EDF/7": 0xc56dc23f13f2fa24,
	"Rnd9/EDF-Accurate/1": 0x773516a942f6471b, "Rnd9/EDF-Accurate/7": 0x5ef3f34eb297838e,
	"Rnd9/EDF-Imprecise/1": 0x2280b05125aa0138, "Rnd9/EDF-Imprecise/7": 0x684908f286c85ddf,
	"Rnd9/EDF+ESR/1": 0x34ef7a070cade7b5, "Rnd9/EDF+ESR/7": 0x91ceae2ad8c628cd,
	"Rnd9/EDF+ESR(C)/1": 0xdde0f616b8779937, "Rnd9/EDF+ESR(C)/7": 0xb4e3063c6f527ef6,
	"Rnd9/ILP+OA/1": 0x268b746c73ed45b, "Rnd9/ILP+OA/7": 0x21c1ff1163a018ff,
	"Rnd9/ILP+Post+OA/1": 0xa65ab4b6184eb5c0, "Rnd9/ILP+Post+OA/7": 0x168931f0ec252f06,
	"Rnd9/Flipped EDF/1": 0xdbf1dbfc92410243, "Rnd9/Flipped EDF/7": 0x99c8e5b386eea182,
	"Rnd10/EDF-Accurate/1": 0x30bac2e07d6545cb, "Rnd10/EDF-Accurate/7": 0x5a35e168378d5e27,
	"Rnd10/EDF-Imprecise/1": 0x1658a908ec18c2df, "Rnd10/EDF-Imprecise/7": 0xd591f3726d63d41b,
	"Rnd10/EDF+ESR/1": 0xb9e3431dd33422b4, "Rnd10/EDF+ESR/7": 0x57be2b9d12831359,
	"Rnd10/EDF+ESR(C)/1": 0xb92811f1aa0c9e0f, "Rnd10/EDF+ESR(C)/7": 0xa7606ed7d7ec9f4b,
	"Rnd10/ILP+OA/1": 0x8e3208f095e0698b, "Rnd10/ILP+OA/7": 0x857233ea024fece,
	"Rnd10/ILP+Post+OA/1": 0xc458ca0efd4f06a0, "Rnd10/ILP+Post+OA/7": 0xde651db45aba03fc,
	"Rnd10/Flipped EDF/1": 0x24b56d277fc8bcc5, "Rnd10/Flipped EDF/7": 0xec12de49dee0e9e,
	"Rnd11/EDF-Accurate/1": 0x8571ea06a0808028, "Rnd11/EDF-Accurate/7": 0xa393e16120e64933,
	"Rnd11/EDF-Imprecise/1": 0x5fbc05446c3e0cd2, "Rnd11/EDF-Imprecise/7": 0x343c638e3560a017,
	"Rnd11/EDF+ESR/1": 0xc4d6da85bb31a83, "Rnd11/EDF+ESR/7": 0xe038d945a314d768,
	"Rnd11/EDF+ESR(C)/1": 0x384bd962f63f1814, "Rnd11/EDF+ESR(C)/7": 0x20f16a9bc3998ba2,
	"Rnd11/ILP+OA/1": 0x1a928ec77e579be4, "Rnd11/ILP+OA/7": 0xdc2a67a984c9cab7,
	"Rnd11/ILP+Post+OA/1": 0x2e2efc400598e98e, "Rnd11/ILP+Post+OA/7": 0x58624a4be748174b,
	"Rnd11/Flipped EDF/1": 0x4071c00d90497c68, "Rnd11/Flipped EDF/7": 0xe08e415970b0ec3f,
	"Rnd12/EDF-Accurate/1": 0xf9c7bb6e666dacd2, "Rnd12/EDF-Accurate/7": 0xeee66d9a3ace7912,
	"Rnd12/EDF-Imprecise/1": 0x62e79dde9862b9e4, "Rnd12/EDF-Imprecise/7": 0xdb136122cce5592e,
	"Rnd12/EDF+ESR/1": 0x9e7e09722331ad67, "Rnd12/EDF+ESR/7": 0x86ba695f1327e802,
	"Rnd12/EDF+ESR(C)/1": 0xeb8a450e842e7e59, "Rnd12/EDF+ESR(C)/7": 0xbd278f0d423be661,
	"Rnd12/ILP+OA/1": 0xebd87b611ea56af0, "Rnd12/ILP+OA/7": 0x99605c0e2cd1f658,
	"Rnd12/ILP+Post+OA/1": 0x9ef857e60bb422af, "Rnd12/ILP+Post+OA/7": 0x693d93b9c6d1caa8,
	"Rnd12/Flipped EDF/1": 0x532c9a5c271d2a86, "Rnd12/Flipped EDF/7": 0x7e32faccbb46a142,
	"Rnd13/EDF-Accurate/1": 0xcf79306d2910a4e2, "Rnd13/EDF-Accurate/7": 0x6eea81867859a82d,
	"Rnd13/EDF-Imprecise/1": 0x3e812c7a13fa26eb, "Rnd13/EDF-Imprecise/7": 0x85e9c2fbf44892b9,
	"Rnd13/EDF+ESR/1": 0x6bc463913f4da9a4, "Rnd13/EDF+ESR/7": 0x6a604c520086993f,
	"Rnd13/EDF+ESR(C)/1": 0x4c7e9f4d97c09fd9, "Rnd13/EDF+ESR(C)/7": 0x6a59df2c2309158f,
	"Rnd13/ILP+OA/1": 0x83efcce0a4be82dd, "Rnd13/ILP+OA/7": 0x3c405ec1a150c68c,
	"Rnd13/ILP+Post+OA/1": 0xc793a18cb5419e01, "Rnd13/ILP+Post+OA/7": 0xf8b9eac37c08044e,
	"Rnd13/Flipped EDF/1": 0x5bfa28b50c4baa06, "Rnd13/Flipped EDF/7": 0xe9e31754c477c39,
	"IDCT/EDF-Accurate/1": 0x760e0b758db541a7, "IDCT/EDF-Accurate/7": 0xa0ab9302232be1b6,
	"IDCT/EDF-Imprecise/1": 0x85b612a0bbd7b730, "IDCT/EDF-Imprecise/7": 0x132d7a14609a19cc,
	"IDCT/EDF+ESR/1": 0x86dc8df6a0e97b38, "IDCT/EDF+ESR/7": 0x35e082650b044173,
	"IDCT/EDF+ESR(C)/1": 0x7557dfea19d6b6a6, "IDCT/EDF+ESR(C)/7": 0x2b84b440a8be2fc0,
	"IDCT/ILP+OA/1": 0x6975da4ba690a318, "IDCT/ILP+OA/7": 0x261c7449204afcd7,
	"IDCT/ILP+Post+OA/1": 0x1154ef5daf7d383d, "IDCT/ILP+Post+OA/7": 0xaa51499c4c591844,
	"IDCT/Flipped EDF/1": 0x6975da4ba690a318, "IDCT/Flipped EDF/7": 0x261c7449204afcd7,
}

// simDigest folds a Result's counters and accumulator bits into one word.
func simDigest(r *sim.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	// Accumulator fields are unexported; reflection reads every one of
	// them, so the digest sees the Welford state bit for bit.
	acc := func(a stats.Accumulator) {
		v := reflect.ValueOf(a)
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Float64:
				put(math.Float64bits(f.Float()))
			case reflect.Int64:
				put(uint64(f.Int()))
			default:
				panic(fmt.Sprintf("simDigest: unexpected accumulator field kind %v", f.Kind()))
			}
		}
	}
	put(uint64(r.Jobs))
	put(uint64(r.Misses.Events))
	put(uint64(r.Misses.Trials))
	put(uint64(r.Accurate))
	put(uint64(r.Imprecise))
	put(uint64(r.Busy))
	put(uint64(r.MaxLateness))
	acc(r.Error)
	for _, a := range r.PerTaskError {
		acc(a)
	}
	for _, a := range r.PerTaskResponse {
		acc(a)
	}
	return h.Sum64()
}

// TestTableISimulationGoldens runs 14 cases × 7 methods × seeds 1 and 7 on
// both engines and compares each run's digest with the recorded golden.
func TestTableISimulationGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("Table I simulation goldens: 392 runs of 100 hyper-periods")
	}
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 14 {
		t.Fatalf("%d cases, want 14", len(cases))
	}
	engines := []struct {
		name string
		kind sim.EngineKind
	}{{"indexed", sim.EngineIndexed}, {"linear", sim.EngineLinearScan}}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			s, err := c.Set()
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range tableIMethods {
				p, err := buildDiffPolicy(method, s)
				if err != nil {
					t.Fatalf("%s: %v", method, err)
				}
				for _, seed := range []uint64{1, 7} {
					key := fmt.Sprintf("%s/%s/%d", c.Name, method, seed)
					want, ok := tableISimGolden[key]
					for _, e := range engines {
						res, err := sim.Run(s, p, sim.Config{
							Hyperperiods: 100,
							Sampler:      sim.NewRandomSampler(s, seed),
							DropLate:     method == "EDF-Accurate",
							Engine:       e.kind,
						})
						if err != nil {
							t.Fatalf("%s %s: %v", key, e.name, err)
						}
						got := simDigest(res)
						switch {
						case !ok:
							t.Errorf("%q: %#x, // %s: no golden recorded", key, got, e.name)
						case got != want:
							t.Errorf("%s %s: digest %#x, golden %#x (jobs %d, misses %d)",
								key, e.name, got, want, res.Jobs, res.Misses.Events)
						}
					}
				}
			}
		})
	}
}
