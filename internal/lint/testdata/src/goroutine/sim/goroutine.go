// Fixture for the goroutine rule: the package path ends in "sim", so
// spawns are in scope, and no waiver can keep one — internal/sweep is
// the only concurrency layer. The retired //litegpu:go-ok directive is
// an unknown directive now, and the spawns it used to cover fire.
package sim

func work() {}

// Unwaived proves spawns are forbidden.
func Unwaived() {
	go work() // want "goroutine spawned in simulation package"
}

// RetiredTrailing proves a trailing go-ok is unknown and waives
// nothing: both the directive and the spawn are reported.
func RetiredTrailing() {
	go work() //litegpu:go-ok window-synchronized worker // want "goroutine spawned in simulation package" "unknown //litegpu: directive go-ok"
}

// RetiredStandalone is the same with the directive on its own line,
// above the spawn it meant to cover.
func RetiredStandalone() {
	//litegpu:go-ok command-channel worker // want "unknown //litegpu: directive go-ok"
	go work() // want "goroutine spawned in simulation package"
}

// WrongCategory proves waivers are category-precise: an ordered-ok
// cannot mute a spawn, and is itself stale.
func WrongCategory() {
	go work() //litegpu:ordered-ok not the right directive // want "goroutine spawned in simulation package" "stale //litegpu:ordered-ok waiver"
}
