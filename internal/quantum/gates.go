package quantum

import (
	"math"
	"math/cmplx"
)

// Matrix2 is a single-qubit operator in row-major order.
type Matrix2 [2][2]complex128

// Matrix4 is a two-qubit operator in row-major order over basis
// |00>,|01>,|10>,|11> (first gate qubit = low bit).
type Matrix4 [4][4]complex128

// Standard single-qubit gates.
var (
	I2 = Matrix2{{1, 0}, {0, 1}}
	X  = Matrix2{{0, 1}, {1, 0}}
	Y  = Matrix2{{0, complex(0, -1)}, {complex(0, 1), 0}}
	Z  = Matrix2{{1, 0}, {0, -1}}
	H  = Matrix2{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}
	S    = Matrix2{{1, 0}, {0, complex(0, 1)}}
	Sdag = Matrix2{{1, 0}, {0, complex(0, -1)}}
	T    = Matrix2{{1, 0}, {0, cmplx.Rect(1, math.Pi/4)}}
	Tdag = Matrix2{{1, 0}, {0, cmplx.Rect(1, -math.Pi/4)}}
)

// RX returns the rotation exp(-i θ X / 2).
func RX(theta float64) Matrix2 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return Matrix2{{c, s}, {s, c}}
}

// RY returns the rotation exp(-i θ Y / 2).
func RY(theta float64) Matrix2 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return Matrix2{{c, -s}, {s, c}}
}

// RZ returns the rotation exp(-i θ Z / 2).
func RZ(theta float64) Matrix2 {
	return Matrix2{
		{cmplx.Rect(1, -theta/2), 0},
		{0, cmplx.Rect(1, theta/2)},
	}
}

// PRX returns the phased-X rotation used as the native single-qubit gate of
// the IQM-style transmon QPU: a rotation by angle theta about the axis
// cos(φ)X + sin(φ)Y in the equator of the Bloch sphere.
// PRX(θ, 0) = RX(θ); PRX(θ, π/2) = RY(θ).
func PRX(theta, phi float64) Matrix2 {
	c := complex(math.Cos(theta/2), 0)
	s := math.Sin(theta / 2)
	return Matrix2{
		{c, complex(-s*math.Sin(phi), -s*math.Cos(phi))},
		{complex(s*math.Sin(phi), -s*math.Cos(phi)), c},
	}
}

// Standard two-qubit gates. Qubit ordering: the first qubit argument of
// Apply2Q is the low bit of the 2-bit index.
var (
	// CZ is symmetric: phase -1 on |11>. The native two-qubit gate of the
	// tunable-coupler transmon QPU.
	CZ = Matrix4{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, -1},
	}
	// CNOT01 flips the second (high) qubit when the first (low) is 1.
	CNOT01 = Matrix4{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	}
	// CNOT10 flips the first (low) qubit when the second (high) is 1.
	CNOT10 = Matrix4{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	}
	// SWAP exchanges the two qubits.
	SWAP = Matrix4{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	}
	// ISWAP exchanges with a phase of i.
	ISWAP = Matrix4{
		{1, 0, 0, 0},
		{0, 0, complex(0, 1), 0},
		{0, complex(0, 1), 0, 0},
		{0, 0, 0, 1},
	}
)

// Phase returns the unit complex number e^(iθ).
func Phase(theta float64) complex128 { return cmplx.Rect(1, theta) }

// Mul2 returns the matrix product a·b.
func Mul2(a, b Matrix2) Matrix2 {
	var out Matrix2
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			out[i][j] = cmul(a[i][0], b[0][j]) + cmul(a[i][1], b[1][j])
		}
	}
	return out
}

// cmul returns x·y as Go's complex multiply computes it — real part
// xr·yr − xi·yi, imaginary part xr·yi + xi·yr — with each product rounded
// on its own (float64(…)), so no compiler fuses one into a multiply-add.
// An arm64 build fuses x*y + z otherwise and writes other bits than an
// amd64 one, which never fuses; the arithmetic the engine's branch weights
// and state depend on goes through cmul, so it reads the same bits on both.
func cmul(x, y complex128) complex128 {
	xr, xi, yr, yi := real(x), imag(x), real(y), imag(y)
	return complex(float64(xr*yr)-float64(xi*yi), float64(xr*yi)+float64(xi*yr))
}

// Dagger2 returns the conjugate transpose of m.
func Dagger2(m Matrix2) Matrix2 {
	return Matrix2{
		{cmplx.Conj(m[0][0]), cmplx.Conj(m[1][0])},
		{cmplx.Conj(m[0][1]), cmplx.Conj(m[1][1])},
	}
}

// IsUnitary2 reports whether m†m ≈ I within tol.
func IsUnitary2(m Matrix2, tol float64) bool {
	p := Mul2(Dagger2(m), m)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p[i][j]-want) > tol {
				return false
			}
		}
	}
	return true
}

// Mul4 returns the matrix product a·b for two-qubit operators.
func Mul4(a, b Matrix4) Matrix4 {
	var out Matrix4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var sum complex128
			for k := 0; k < 4; k++ {
				sum += a[i][k] * b[k][j]
			}
			out[i][j] = sum
		}
	}
	return out
}

// Dagger4 returns the conjugate transpose of m.
func Dagger4(m Matrix4) Matrix4 {
	var out Matrix4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			out[i][j] = cmplx.Conj(m[j][i])
		}
	}
	return out
}

// IsUnitary4 reports whether m†m ≈ I within tol.
func IsUnitary4(m Matrix4, tol float64) bool {
	p := Mul4(Dagger4(m), m)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p[i][j]-want) > tol {
				return false
			}
		}
	}
	return true
}

// PrepareGHZ drives the state to the n-qubit GHZ state
// (|00..0> + |11..1>)/√2 using H on qubit 0 and a CNOT ladder — the
// standardized health-check algorithm the paper runs on qubit subsets (§3.2).
func PrepareGHZ(s *State) error {
	s.Reset()
	if err := s.Apply1Q(0, H); err != nil {
		return err
	}
	for q := 1; q < s.NumQubits(); q++ {
		// CNOT with control q-1 (low arg) and target q (high arg).
		if err := s.Apply2Q(q-1, q, CNOT01); err != nil {
			return err
		}
	}
	return nil
}

// GHZFidelity returns the fidelity of the state with the ideal n-qubit GHZ
// state.
func GHZFidelity(s *State) float64 {
	dim := s.Dim()
	a0 := s.Amplitude(0)
	a1 := s.Amplitude(dim - 1)
	// |<GHZ|ψ>|² with <GHZ| = (⟨0…0| + ⟨1…1|)/√2.
	ip := (a0 + a1) / complex(math.Sqrt2, 0)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
