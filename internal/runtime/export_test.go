package runtime

// MaxClockSkips exposes the tick gate's skip bound to the tests.
const MaxClockSkips = maxClockSkips
