package features

import (
	"encoding/json"
	"strconv"
)

// Features mirrors the model features of Table 3. The uptime feature is not
// part of this struct: it is supplied per-prediction (the reprediction
// input, §3) and appended by Encoder.Encode.
type Features struct {
	Zone            string // geographical zone the VM runs in
	VMShape         string // resource-dimension tag, e.g. "c2-standard-8"
	VMCategory      string // internal VM categorization tag
	MetadataID      string // groups related VMs together
	Priority        string // preemption priority band
	HasSSD          bool   // local SSD attached
	Spot            bool   // provisioning model: spot vs on-demand
	AdmissionPolicy bool   // admitted without quota check (special VMs)
	CPUMilli        int64  // shape CPU, milli-cores (numeric hint)
	MemoryMB        int64  // shape memory, MiB (numeric hint)
}

// FieldNames lists the encoded feature columns in order, for feature
// importance reporting (Fig. 11). The final column, "uptime", is appended by
// Encode when an uptime is supplied.
var FieldNames = []string{
	"zone", "vm_shape", "vm_category", "metadata_id", "priority",
	"has_ssd", "spot", "admission_policy", "cpu", "memory", "uptime",
}

// NumColumns is the width of an encoded feature vector (including uptime).
const NumColumns = 11

// MinCategoryCount is the rare-category collapse threshold from Appendix A:
// categories with fewer than 10 training examples become "Other".
const MinCategoryCount = 10

// Example pairs features with a training label (log10 lifetime hours).
type Example struct {
	F           Features
	Log10Hours  float64 // label: log10 of the (possibly capped) lifetime in hours
	UptimeLog10 float64 // log10 uptime hours input (survival augmentation, §3)
}

// Encoder maps Features to a fixed-width []float64 using target encoding
// learned from a training set. The zero Encoder is not usable; build one
// with Fit.
type Encoder struct {
	cat [5]map[string]float64 // per categorical column: category -> mean label
	def [5]float64            // per categorical column: fallback ("Other") mean
}

// catValues extracts the five categorical columns in a fixed order.
func catValues(f Features) [5]string {
	return [5]string{f.Zone, f.VMShape, f.VMCategory, f.MetadataID, f.Priority}
}

// Fit learns a target encoding from labeled examples: each category maps to
// the mean label of its members; categories with fewer than
// MinCategoryCount members collapse into the fallback mean.
func Fit(examples []Example) *Encoder {
	e := &Encoder{}
	for col := 0; col < 5; col++ {
		sum := map[string]float64{}
		cnt := map[string]int{}
		total, n := 0.0, 0
		for _, ex := range examples {
			v := catValues(ex.F)[col]
			sum[v] += ex.Log10Hours
			cnt[v]++
			total += ex.Log10Hours
			n++
		}
		e.cat[col] = make(map[string]float64, len(sum))
		if n > 0 {
			e.def[col] = total / float64(n)
		}
		for v, c := range cnt {
			if c >= MinCategoryCount {
				e.cat[col][v] = sum[v] / float64(c)
			}
		}
	}
	return e
}

// Encode converts f into a numeric vector. uptimeLog10 is the log10 of the
// VM's uptime so far in hours (use a large negative value, e.g. -4, for
// zero uptime); it occupies the final column.
func (e *Encoder) Encode(f Features, uptimeLog10 float64) []float64 {
	return e.AppendEncode(make([]float64, 0, NumColumns), f, uptimeLog10)
}

// AppendEncode appends the NumColumns columns of Encode to dst and returns
// the extended slice. With a dst of sufficient capacity it does not
// allocate: prediction encodes into a stack buffer on every call.
func (e *Encoder) AppendEncode(dst []float64, f Features, uptimeLog10 float64) []float64 {
	cats := catValues(f)
	for col := 0; col < 5; col++ {
		v, ok := e.cat[col][cats[col]]
		if !ok {
			v = e.def[col]
		}
		dst = append(dst, v)
	}
	return append(dst,
		b2f(f.HasSSD), b2f(f.Spot), b2f(f.AdmissionPolicy),
		float64(f.CPUMilli)/1000.0, float64(f.MemoryMB)/1024.0,
		uptimeLog10)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// String renders a compact diagnostic form: the bytes AppendString appends.
func (f Features) String() string { return string(f.AppendString(make([]byte, 0, 96))) }

// AppendString appends String's form of f to b — `zone=%s shape=%s cat=%s
// meta=%s prio=%s ssd=%t spot=%t adm=%t`, strings verbatim — and returns
// the extended slice. Feature-hash routing hashes these bytes; with a b of
// sufficient capacity it does not allocate.
func (f *Features) AppendString(b []byte) []byte {
	for _, kv := range [...]struct{ key, val string }{
		{"zone=", f.Zone}, {" shape=", f.VMShape}, {" cat=", f.VMCategory},
		{" meta=", f.MetadataID}, {" prio=", f.Priority},
	} {
		b = append(append(b, kv.key...), kv.val...)
	}
	b = strconv.AppendBool(append(b, " ssd="...), f.HasSSD)
	b = strconv.AppendBool(append(b, " spot="...), f.Spot)
	return strconv.AppendBool(append(b, " adm="...), f.AdmissionPolicy)
}

// encoderJSON is the serialization form of Encoder.
type encoderJSON struct {
	Cat [5]map[string]float64 `json:"cat"`
	Def [5]float64            `json:"def"`
}

// MarshalJSON implements json.Marshaler so trained encoders can be persisted
// alongside their models (the paper compiles both into the scheduler
// binary; we ship them in one file).
func (e *Encoder) MarshalJSON() ([]byte, error) {
	return json.Marshal(encoderJSON{Cat: e.cat, Def: e.def})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Encoder) UnmarshalJSON(data []byte) error {
	var ej encoderJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return err
	}
	e.cat = ej.Cat
	e.def = ej.Def
	for i := range e.cat {
		if e.cat[i] == nil {
			e.cat[i] = map[string]float64{}
		}
	}
	return nil
}
