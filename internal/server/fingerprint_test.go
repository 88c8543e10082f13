package server

import (
	"testing"

	"pipesched/internal/machine"
)

// goldenFingerprints pins Fingerprint for a source and a tuples request
// on every machine preset. Disk-tier keys and fleet ring positions are
// these bytes, so a change here orphans every durable cache entry and
// reshuffles routing: it must only ever be deliberate.
var goldenFingerprints = map[string]string{
	"carp/source":        "6b8527382644f8c7adb66439a3c1a6da11241aa475de7d2d9328e537e8f49c60",
	"carp/tuples":        "4b0fa92bbe5a772be14adf9b9da38eeb39b47a005e4492426c824b61fa835242",
	"deep/source":        "77f7b0ed1d5348aed565e16ce1047e78f615976972a196f4be9e5808deb8ef0c",
	"deep/tuples":        "0256035bc3a48139fd2c55809f45eae589e5a87f05b15f9bc415ac7f04b23e87",
	"example/source":     "c684733cc44fcae514e296a388337ab2608d194f52dfcc65fc6b2fc1ddc4d627",
	"example/tuples":     "867253f425ee751190c30e0b99213e9923eec12ff3c91cc931666568b3777296",
	"m88k/source":        "e2d2e93db75f963b927d9cf5435d0dec8a8894a543afd765a35238675ef412ac",
	"m88k/tuples":        "6a9d955e2c944896cfe054f940f84f1de50762472239f0fcea36b99b09644631",
	"r3000/source":       "f14f0c7bce8955f8bbca1e8e97f4dfe912965aec20fea0e6e69bf6a4413b815a",
	"r3000/tuples":       "1f2a665dce8128834b8c96c1d26188b4f27abec96748566ab9d54977e7775929",
	"simulation/source":  "8d44802e4c1a4437543098cfe339f0f90634f4a18bf046061e45b2a2cb09391d",
	"simulation/tuples":  "79baae23eaecce48cb7d809afc5d318e96c4544d23115699ef46ed53014cb452",
	"unpipelined/source": "a88af3e0464c7d41ba657659f78c65ec38dd8ac0f08969b85996b4e6233fa3c0",
	"unpipelined/tuples": "aaf9f1456d291889b553f04bcf8c27c53154bc98179ec55c0525fb85d57aed52",
}

// TestFingerprintGolden checks every preset against the pinned bytes,
// and that a text-spec machine rendering a preset hashes like the
// preset itself (the fingerprint covers the machine's canonical
// rendering, not how the request named it).
func TestFingerprintGolden(t *testing.T) {
	presets := machine.Presets()
	if got, want := 2*len(presets), len(goldenFingerprints); got != want {
		t.Fatalf("%d presets × 2 requests, but %d golden fingerprints: pin the new preset", len(presets), want)
	}
	for name, mk := range presets {
		for _, kind := range []string{"source", "tuples"} {
			req := &Request{Machine: MachineSpec{Preset: name}}
			if kind == "source" {
				req.Source = "b = 15\na = b * a\n"
			} else {
				req.Tuples = tupleBlock(1)
			}
			want := goldenFingerprints[name+"/"+kind]
			if fp, err := Fingerprint(req); err != nil || fp != want {
				t.Errorf("%s/%s: Fingerprint = %s, %v; want %s", name, kind, fp, err, want)
			}
			req.Machine = MachineSpec{Text: mk().String()}
			if fp, err := Fingerprint(req); err != nil || fp != want {
				t.Errorf("%s/%s as text spec: Fingerprint = %s, %v; want %s", name, kind, fp, err, want)
			}
		}
	}
}
