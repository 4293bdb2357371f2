package spice

// driver models the element injecting current into a stage's root RC node.
// It is one concrete type, so the Newton loop in solveRoot calls eval
// directly rather than through an interface. eval returns the current into
// the node (mA) and its derivative with respect to the node voltage
// (mA/V = 1/kΩ); the derivative is non-positive, so the Newton iteration
// stays monotone.
//
// With inverter unset the driver is the clock source: a resistor r (kΩ)
// from the ideal input ramp to the network root. With inverter set it is a
// balanced square-law CMOS inverter: an nMOS pulling the output to ground
// and a pMOS pulling it to vdd, both with transconductance k (mA/V²) and
// threshold vt. Short-circuit current during the input transition is
// modeled naturally because both devices conduct while the input is
// mid-swing.
type driver struct {
	inverter   bool
	r          float64
	k, vdd, vt float64
}

// mosfet returns the square-law drain current and its derivative with
// respect to vds, for gate overdrive vov = vgs - vt. The triode expression
// is used for vds < vov (including vds < 0, where the channel conducts
// backwards), the saturation expression beyond.
func mosfet(k, vov, vds float64) (i, didvds float64) {
	if vov <= 0 {
		return 0, 0
	}
	if vds < vov {
		return k * (2*vov*vds - vds*vds), 2 * k * (vov - vds)
	}
	return k * vov * vov, 0
}

func (d *driver) eval(vin, vout float64) (float64, float64) {
	if !d.inverter {
		g := 1 / d.r
		return (vin - vout) * g, -g
	}
	// nMOS: gate at vin, source at ground, drain at vout. Discharges node.
	in, gn := mosfet(d.k, vin-d.vt, vout)
	// pMOS: gate at vin, source at vdd, drain at vout. Charges node. In its
	// own frame vgs = vdd-vin and vds = vdd-vout.
	ip, gp := mosfet(d.k, d.vdd-vin-d.vt, d.vdd-vout)
	// dip/dvout = -gp (chain rule through vds_p = vdd - vout).
	return ip - in, -gp - gn
}

// solveRoot solves d0·v - b0 = I(vin, v) for v with a safeguarded Newton
// iteration. The equation is monotone in v (d0 > 0, dI/dv <= 0), so Newton
// from the previous solution converges in a handful of iterations; a
// bisection fallback guards pathological starts.
func solveRoot(drv *driver, vin, d0, b0, vPrev, vdd float64) float64 {
	v := vPrev
	lo, hi := -0.5, vdd+0.5
	for iter := 0; iter < 60; iter++ {
		i, didv := drv.eval(vin, v)
		f := d0*v - b0 - i
		if abs(f) < 1e-10 {
			return v
		}
		// f is monotone increasing in v, so the sign tells us which side
		// of the root we are on.
		if f > 0 {
			hi = v
		} else {
			lo = v
		}
		fp := d0 - didv
		nv := v - f/fp
		if nv <= lo || nv >= hi {
			nv = (lo + hi) / 2 // Newton left the bracket: bisect
		}
		if abs(nv-v) < 1e-9 {
			return nv
		}
		v = nv
	}
	return v
}
