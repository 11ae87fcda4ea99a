package load

import "fmt"

// Peripheral current signatures. Parameters come from Table III and the
// application descriptions in Section VI-B. On the real Capybara these were
// captured from the physical parts (APDS-9960, CC2650 BLE, Cortex-M4 running
// an MNIST DNN, LSM6DS3 IMU, SPU0414HR5H microphone, SX1276 LoRa); here they
// are synthesized with the same peak current, pulse width, and shape, which
// is all the power system observes.

// Gesture is the gesture-recognition sensor operation: a short, sharp
// 25 mA peak for 3.5 ms (Table III).
func Gesture() Profile {
	return Seq{ID: "gesture", Parts: []Profile{
		Ramp{ID: "gesture-rise", I0: 2e-3, I1: 25e-3, T: 0.4e-3},
		Uniform{ID: "gesture-peak", ILoad: 25e-3, TPulse: 2.7e-3},
		Ramp{ID: "gesture-fall", I0: 25e-3, I1: 2e-3, T: 0.4e-3},
	}}
}

// BLERadio is the BLE transmit operation: 13 mA peak for 17 ms with the
// characteristic pre-amble of radio startup (Table III).
func BLERadio() Profile {
	return Seq{ID: "ble", Parts: []Profile{
		Uniform{ID: "ble-wake", ILoad: 5e-3, TPulse: 2e-3},
		Uniform{ID: "ble-tx", ILoad: 13e-3, TPulse: 13e-3},
		Uniform{ID: "ble-tail", ILoad: 6e-3, TPulse: 2e-3},
	}}
}

// BLEListen is a low-power listen window after a transmission (the
// Responsive Reporting app listens for 2 s awaiting a response). The
// paper's listen path is an ultra-low-power wake-up-receiver arrangement,
// so the draw is sub-milliamp.
func BLEListen(window float64) Profile {
	return Uniform{ID: "ble-listen", ILoad: 0.3e-3, TPulse: window}
}

// ComputeAccel is the external Cortex-M4 running an MNIST digit-recognition
// DNN: a sustained 5 mA draw for 1.1 s (Table III).
func ComputeAccel() Profile {
	return Seq{ID: "mnist", Parts: []Profile{
		Uniform{ID: "mnist-start", ILoad: 6e-3, TPulse: 20e-3},
		Uniform{ID: "mnist-run", ILoad: 5e-3, TPulse: 1.06},
		Uniform{ID: "mnist-finish", ILoad: 3e-3, TPulse: 20e-3},
	}}
}

// LoRa is the LoRa packet transmission used in the Figure 4 motivation:
// 50 mA for 100 ms.
func LoRa() Profile {
	return Uniform{ID: "lora", ILoad: 50e-3, TPulse: 100e-3}
}

// Named resolves the loads the CLIs and culpeod accept by name: a
// peripheral ("gesture", "ble", "mnist", "lora") when peripheral is set,
// else a shape ("uniform", "pulse") drawing i amperes for t seconds.
func Named(peripheral, shape string, i, t float64) (Profile, error) {
	switch peripheral {
	case "gesture":
		return Gesture(), nil
	case "ble":
		return BLERadio(), nil
	case "mnist":
		return ComputeAccel(), nil
	case "lora":
		return LoRa(), nil
	case "":
	default:
		return nil, fmt.Errorf("load: unknown peripheral %q", peripheral)
	}
	switch shape {
	case "uniform":
		return NewUniform(i, t), nil
	case "pulse":
		return NewPulse(i, t), nil
	}
	return nil, fmt.Errorf("load: unknown shape %q", shape)
}

// IMURead reads n samples from the inertial module. Each sample costs a
// short access burst on top of sensor-active current; 32 samples take about
// 160 ms (Periodic Sensing reads 32 samples per event).
func IMURead(n int) Profile {
	if n <= 0 {
		n = 1
	}
	return Seq{ID: "imu-read", Parts: []Profile{
		Uniform{ID: "imu-on", ILoad: 4e-3, TPulse: 10e-3},
		Uniform{ID: "imu-sample", ILoad: 6.5e-3, TPulse: float64(n) * 5e-3},
		Uniform{ID: "imu-off", ILoad: 2e-3, TPulse: 5e-3},
	}}
}

// PhotoRead is the background photoresistor read plus averaging compute —
// the low-priority task of Periodic Sensing and Responsive Reporting.
func PhotoRead() Profile {
	return Seq{ID: "photo-read", Parts: []Profile{
		Uniform{ID: "photo-adc", ILoad: 2.5e-3, TPulse: 8e-3},
		Uniform{ID: "photo-avg", ILoad: 1.5e-3, TPulse: 12e-3},
	}}
}

// MicRead reads n samples at the given rate from the low-power microphone
// (Noise Monitoring reads 256 samples at 12 kHz).
func MicRead(n int, rate float64) Profile {
	if n <= 0 {
		n = 1
	}
	if rate <= 0 {
		rate = 12e3
	}
	return Seq{ID: "mic-read", Parts: []Profile{
		Uniform{ID: "mic-on", ILoad: 1.8e-3, TPulse: 2e-3},
		Uniform{ID: "mic-sample", ILoad: 3.2e-3, TPulse: float64(n) / rate},
	}}
}

// FFT is the background FFT over n samples — compute-bound MCU work at
// active current.
func FFT(n int) Profile {
	if n <= 0 {
		n = 256
	}
	// ~0.6 ms of active compute per 32-sample chunk on an MSP430-class core.
	t := float64(n) / 32 * 0.6e-3 * 10
	return Uniform{ID: "fft", ILoad: 2.2e-3, TPulse: t}
}

// Encrypt encrypts n bytes (Responsive Reporting encrypts the IMU samples
// before transmission).
func Encrypt(n int) Profile {
	if n <= 0 {
		n = 192
	}
	t := float64(n) * 60e-6
	return Uniform{ID: "encrypt", ILoad: 2.8e-3, TPulse: t}
}

// SleepCurrent is the MCU low-power sleep draw used between events.
const SleepCurrent = 50e-6

// MCUActiveCurrent is the MCU draw while executing instructions.
const MCUActiveCurrent = 1.5e-3

// TableIIIUniform returns the paper's uniform load sweep: Iload in
// {5, 10, 25, 50} mA crossed with tpulse in {1, 10, 100} ms.
func TableIIIUniform() []Profile {
	var out []Profile
	for _, i := range []float64{5e-3, 10e-3, 25e-3, 50e-3} {
		for _, t := range []float64{1e-3, 10e-3, 100e-3} {
			out = append(out, NewUniform(i, t))
		}
	}
	return out
}

// TableIIIPulse returns the paper's pulsed load sweep (same grid, each pulse
// followed by 100 ms of 1.5 mA compute).
func TableIIIPulse() []Profile {
	var out []Profile
	for _, i := range []float64{5e-3, 10e-3, 25e-3, 50e-3} {
		for _, t := range []float64{1e-3, 10e-3, 100e-3} {
			out = append(out, NewPulse(i, t))
		}
	}
	return out
}

// Fig10Loads returns the 18 load points plotted in Figure 10: nine uniform
// and nine pulsed combinations — {5 mA, 10 mA} × 100 ms, {5, 10, 25, 50 mA}
// × 10 ms, and {10, 25, 50 mA} × 1 ms.
func Fig10Loads() (uniform, pulse []Profile) {
	type pt struct{ i, t float64 }
	grid := []pt{
		{5e-3, 100e-3}, {10e-3, 100e-3},
		{5e-3, 10e-3}, {10e-3, 10e-3}, {25e-3, 10e-3}, {50e-3, 10e-3},
		{10e-3, 1e-3}, {25e-3, 1e-3}, {50e-3, 1e-3},
	}
	for _, g := range grid {
		uniform = append(uniform, NewUniform(g.i, g.t))
		pulse = append(pulse, NewPulse(g.i, g.t))
	}
	return uniform, pulse
}

// Fig6Loads returns the six pulsed loads of Figure 6: {5, 10 mA} × 100 ms
// and {5, 10, 25, 50 mA} × 10 ms, each with the 100 ms compute tail.
func Fig6Loads() []Profile {
	type pt struct{ i, t float64 }
	grid := []pt{
		{5e-3, 100e-3}, {10e-3, 100e-3},
		{5e-3, 10e-3}, {10e-3, 10e-3}, {25e-3, 10e-3}, {50e-3, 10e-3},
	}
	var out []Profile
	for _, g := range grid {
		out = append(out, NewPulse(g.i, g.t))
	}
	return out
}
