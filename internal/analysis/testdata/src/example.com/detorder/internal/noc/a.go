package noc

type array struct{}

func (array) SetNoiseEpoch(e int64) {}

// Partial products reduced in map order change the output's bits from run
// to run; a tile grid reduces them in row-major order.
func badReduce(parts map[int][]float64, out []float64) {
	for _, part := range parts { // want "writes floating-point state"
		for i, p := range part {
			out[i] += p
		}
	}
}

// Epochs handed to arrays in map order make every noise draw a function of
// Go's map randomization.
func badEpochs(arrays map[string]array) {
	for _, xb := range arrays { // want "derives a noise epoch"
		xb.SetNoiseEpoch(1)
	}
}
