package runtime

// MaxClockSkips exposes the cluster clock's skip bound to the tests.
const MaxClockSkips = maxClockSkips
